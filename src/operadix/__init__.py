"""Operads as data.

A small laboratory for n-ary composition: a grafting machine over
flat relations, an independent tree oracle to check it against, an
evaluator on finite functions where the operad axioms are decidable,
a text language for composition programs, a randomized explorer, and
a decoration layer that lets slots carry symbols.
"""

from .core import (
    BoundsError,
    CarrierMismatch,
    Config,
    ConfigError,
    ElaborationError,
    GuardFailed,
    OperadError,
    ParseError,
    StateFormatError,
)
from .decoration import (
    DecoratedState,
    check_gluing,
    compose_seq_x,
    decorated_to_json,
    default_alphabet,
    dump_decorated,
    empty_decorated,
    erase,
    load_decorated,
    new_operad_x,
)
from .endomorphism import (
    FiniteFn,
    SweepResult,
    all_functions,
    check_identity_axiom,
    check_parallel_axiom,
    check_sequential_axiom,
    circ,
    constant_fn,
    format_fn,
    identity_fn,
    interpret,
    parse_fn_spec,
    sweep_identity,
    sweep_parallel,
    sweep_sequential,
)
from .expr_parser import Atom, Compose, Declaration, elaborate, parse, print_expr, print_program
from .flat_machine import (
    ComposeSeq,
    ComposeWitness,
    FlatState,
    NewOperad,
    apply_event,
    check_invariants,
    component_of,
    compose_seq,
    compose_seq_with_witness,
    composition_law_violations,
    empty_state,
    foliage_of,
    hat_map_of,
    hook_map_of,
    in_map_of,
    new_operad,
    roots,
)
from .serialize import dump_state, load_state, state_to_json
from .simulator import (
    SimConfig,
    SimReport,
    TraceReset,
    Violation,
    format_report,
    format_trace,
    parse_trace,
    replay,
    report_to_json,
    run,
)
from .tree_oracle import (
    LEAF,
    DuplicateLabels,
    Leaf,
    TreeOperad,
    compare_with_flat,
    derive_flat_view,
    elementary,
    format_tree,
    graft,
)

__version__ = "0.1.0"
