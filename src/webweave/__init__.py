"""Rectangular tableaux, sl2/sl3 webs, and the reflection-evacuation
correspondence between them."""

from .bijection import (
    Arc,
    ArcDiagram,
    Crossing,
    catalan_pairing,
    find_crossings,
    m_diagram,
    russell_web,
    tableau_of_web,
    tymoczko_web,
    web_of_2row,
)
from .jdt import (
    GKProfile,
    delta,
    evacuate,
    gk_profile,
    jdt_slide,
    reading_word,
    rectify,
    slide_targets,
)
from .tableau import (
    NotRussellError,
    RowStrictTableau,
    Shape,
    SkewShape,
    count_standard,
    enumerate_russell,
    enumerate_standard,
    format_tableau,
    is_standard,
    parse_tableau,
    rotate_complement,
    russell_repetition,
    standardize,
    tableau_from_json,
    tableau_to_json,
)
from .verify import Family, VerifyReport, run_verification
from .webcore import (
    Matching,
    Web,
    WebStructureError,
    canonicalize,
    contract_pair,
    matching_from_json,
    matching_to_json,
    reflect_matching,
    reflect_web,
    validate_web,
    web_from_json,
    web_to_json,
)

__version__ = "0.1.0"
