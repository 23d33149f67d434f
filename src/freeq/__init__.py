"""Exact computation in free groups, free constructions over free groups,
and Q-completions via iterated centralizer extensions."""

from .words import (
    Alphabet,
    CyclicWord,
    Presentation,
    ResourceCapError,
    Word,
    WordSyntaxError,
    conjugacy_witness,
    conjugate,
    cyclic_reduce,
    dehn_area,
    extract_root,
    free_reduce,
    gromov_product,
    inverse,
    is_conjugate,
    is_primitive,
    mul,
    power,
)
from .stallings import (
    CoreGraph,
    build_core,
    conjugate_intersections_finite,
    contains,
    express,
    fiber_product,
    free_basis,
    is_conjugate_separated,
    quasiconvexity_constant,
)
from .constructions import (
    AmalgamData,
    HNNData,
    IsoError,
    Verdict,
    check_amalgam,
    check_separated_hnn,
    verdict_to_json,
    verify_iso,
)
from .tower import (
    Form,
    Tower,
    canonical_form,
    conjugate_in_tower,
    cyclic_decompose,
    elem_len,
    extract_root_elem,
    serialize,
)
from .qcompletion import (
    QSession,
    QSyntaxError,
    depth,
    enumerate_Vn,
    locate,
    parse_qword,
    tower_level,
)

__version__ = "0.1.0"
