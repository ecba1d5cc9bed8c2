"""Finite posets, orthocomplemented structures, multi-view representation
systems and their sums, with every law checked by exhaustive scan at desk
scale. See the model zoo in `orthoview.modelio` for ready-made structures.
"""

from .poset import (
    FinitePoset,
    InternalCheckError,
    ValidationError,
    Verdict,
    find_order_isomorphism,
)
from .ortho import (
    OrthoPoset,
    StructureClass,
    classify,
    derive_boolean_ortho,
    is_boolean_algebra,
    is_lattice,
    is_orthomodular_lattice,
    is_orthomodular_poset,
    sasaki_projection,
)
from .repsys import (
    BooleanRepresentationSystem,
    RepresentationSystem,
    apply_transform,
    check_boolean_rs_axioms,
    check_rs_axioms,
    make_rs,
    validate_boolean_rs,
    validate_rs,
)
from .sums import (
    PreSum,
    SumPoset,
    build_presum,
    closure_table,
    quotient_sum,
    sum_as_orthoposet,
    verify_closure_properties,
    view_closure,
)
from .conditions import (
    AmpAxiomReport,
    AmpOperation,
    SasakiComparison,
    amp_vs_sasaki,
    build_amp,
    check_condition_oml,
    check_condition_omp,
    derived_meet,
    derived_meet_table,
    verify_amp_axioms,
)
from .decompose import (
    BooleanSubalgebra,
    RoundtripResult,
    build_canonical_rs,
    compatible,
    enumerate_boolean_subalgebras,
    roundtrip_check,
    subalgebra,
    upper_projection,
)
from .modelio import (
    ModelDocument,
    ParseError,
    Record,
    ZooModel,
    build,
    build_orthoposet,
    build_poset,
    build_repsys,
    doc_from_orthoposet,
    doc_from_poset,
    emit_report,
    parse,
    serialize,
    zoo,
    zoo_model,
)
