"""Push algebra, pushable homomorphisms and criticality for oriented graphs."""

from .canon import canonical_form, oriented_canonical_form, underlying_cert
from .chains import Kernel, classify_vertices
from .configs import (
    CONFIG_IDS,
    ConfigurationGadget,
    gadgets_for,
    negative_control_gadget,
    verify_configuration,
)
from .crit import (
    CriticalityReport,
    extract_critical_subgraph,
    is_pushably_k_colorable,
    is_pushably_k_critical,
)
from .density import mad_exact
from .discharge import DischargingReport, discharging_audit
from .enumeration import (
    EnumerationRecord,
    UnderlyingGraph,
    enumerate_underlying,
    find_critical,
    verify_density_bound,
)
from .errors import (
    ConfigError,
    FixtureIntegrityError,
    GraphParseError,
    IncompatibleInputError,
    InvalidPushSetError,
    PushcritError,
    ResourceBudgetError,
    SelfCheckError,
    StructuralViolationError,
    UnclassifiableGraphError,
    UndefinedInputError,
    UnknownFixtureError,
    UnknownSuiteError,
)
from .fixtures import builtin_graphs, fixture
from .graph import (
    OrientedGraph,
    anti_twin,
    directed_cycle,
    directed_path,
    girth,
    parse_graph,
    potential,
    push_vertices,
    serialize_graph,
)
from .hom import (
    ColoringCertificate,
    extend_partial,
    find_homomorphism,
    find_pushable_homomorphism,
    oriented_chromatic_number,
    path_color_sets,
    pushable_chromatic_number,
    tournaments,
)
from .lpq import LpqLabeling, at_c3_labeling, check_lpq_labeling, lpq_span_search
from .orient import is_push_equivalent
from .reconstruct import verify_fig6_coloring, verify_split_vertex_reconstructions
from .verify import run_suites, verify_potential_table, write_report

__version__ = "0.1.0"
