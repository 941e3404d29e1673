"""Workbench for the semantics of sentence coordination: classical boolean
evaluation, formal-vector (option-set) denotations, Gricean implicature
projection, and exact-rational probabilistic relevance checks, over one
small object language of aspect-annotated atoms joined by and/or/xor/not.
"""

from .boolean import (
    LawVerdict,
    Verdict,
    check_law,
    dual,
    equivalent,
    eval_formula,
    xor_parity,
)
from .errors import (
    AtomLimitError,
    MissingAtomError,
    ParseError,
    SizeLimitError,
    UnboundMetavariableError,
    UnknownLabelError,
    UnsupportedConnectiveError,
    WorkbenchError,
    ZeroProbabilityError,
)
from .formula import (
    ABS1,
    ABS2,
    CORPUS_LABELS,
    DIS1,
    DIS2,
    IDE1,
    IDE2,
    STANDARD_LAWS,
    And,
    Atom,
    AtomNode,
    Formula,
    LawSchema,
    Not,
    Or,
    Xor,
    corpus_lookup,
    instantiate,
    length_metric,
    parse,
    unparse,
)
from .implicature import (
    EpistemicConstraint,
    ImplicatureReport,
    Mode,
    Polarity,
    Provenance,
    assertions,
    consistent,
    potential_clausal,
    potential_scalar,
    project,
)
from .prospect import (
    Category,
    Judgment,
    OptionSet,
    Prospect,
    denote_one,
    denote_options,
    judge,
    option_equivalent,
)
from .relevance import (
    LikelihoodPair,
    RationalDist,
    SearchResult,
    SearchStatus,
    check_disjunction_corollary,
    check_explosion_irrelevance,
    check_frege_theorem,
    check_relevance_ordering,
    cond_prob,
    explosion_on_grid,
    grid,
    llr,
    prob,
)
from .report import PairComparison, ReportRecord, build_records, compare

__version__ = "0.1.0"

__all__ = [
    "ABS1", "ABS2", "And", "Atom", "AtomLimitError", "AtomNode", "CORPUS_LABELS",
    "Category", "DIS1", "DIS2", "EpistemicConstraint", "Formula", "IDE1", "IDE2",
    "ImplicatureReport", "Judgment", "LawSchema", "LawVerdict", "LikelihoodPair",
    "MissingAtomError", "Mode", "Not", "OptionSet", "Or", "PairComparison",
    "ParseError", "Polarity", "Prospect", "Provenance", "RationalDist",
    "ReportRecord", "STANDARD_LAWS", "SearchResult", "SearchStatus",
    "SizeLimitError", "UnboundMetavariableError", "UnknownLabelError",
    "UnsupportedConnectiveError", "Verdict", "WorkbenchError", "Xor",
    "ZeroProbabilityError", "assertions", "build_records", "check_disjunction_corollary",
    "check_explosion_irrelevance", "check_frege_theorem", "check_law",
    "check_relevance_ordering", "compare", "cond_prob", "consistent",
    "corpus_lookup", "denote_one", "denote_options", "dual", "equivalent",
    "eval_formula", "explosion_on_grid", "grid", "instantiate", "judge",
    "length_metric", "llr", "option_equivalent", "parse", "potential_clausal",
    "potential_scalar", "prob", "project", "unparse", "xor_parity",
]
