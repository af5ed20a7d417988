"""Exact virtual machine for weighted graphings over Z x [0,1]^N."""

from .space import (MeasurableSet, RationalBox, RationalInterval,
                    common_refinement, interval)
from .realizers import (DomainViolation, Microcosm, Realizer,
                        standard_generators)
from .graphing import (Edge, Graphing, GraphingClass, PROBABILITIES, TRIVIAL,
                       classify, cost, disjoint_union, validate)
from .execution import (AlternatingCycle, Diagnostics, INFINITY,
                        LanguageResult, PlugResult, Regions, T_CONL, T_DET,
                        T_NL, Test, Verdict, accept_mass, cycles,
                        evaluate_test, language, measurement, plug, t_prob)
from .machines import (Action, MachineParseError, MachineSpec,
                       MachineSpecError, MARKER, load_machine, parse_machine,
                       validate_spec)
from .encodings import (EncodedMachine, TapeLayout, WordEncoding,
                        classify_result, encode_machine, encode_word,
                        run_word)
from .oracle import (conl_accepts, dfa_accepts, nfa_accepts, oracle_language,
                     pfa_accept_prob, pfa_outcome_probs, words_up_to)
from .equivalence import (CompilationWitness, compile_graphing,
                          is_compilable, orbit, separation_experiment,
                          treeing_cost, unit_shift_witnesses)

__version__ = "0.1.0"
