"""Vulnerability patching pipeline.

Slices the vulnerable program down to the statements external inputs can
drive into the vulnerable lines, mines reasoning exemplars from known
patches, adaptively prompts a model provider for candidate patches, and
keeps only candidates at least one validating provider affirms.
"""

from .code_model import (
    DependenceGraph,
    ExternalInputSet,
    FunctionDef,
    Program,
    StatementNode,
    build_sdg,
    export_graph,
    identify_external_inputs,
    import_graph,
    parse_program,
)
from .scoping import (
    RenderedSlice,
    SliceResult,
    VulnSpec,
    render_slice,
    vulnerability_semantics,
)
from .exemplars import (
    DatasetSample,
    Exemplar,
    build_pool,
    load_dataset,
    load_pool,
    mine_exemplar,
    save_pool,
)
from .prompting import (
    CandidatePatch,
    RootCause,
    generate_patches,
    generate_root_cause,
    parse_context_demand,
    select_exemplars,
)
from .validation import ValidationVerdict, validate_all, validate_patch
from .gateway import (
    CachedProvider,
    Exchange,
    HttpChatProvider,
    Provider,
    ScriptedProvider,
    accounting_report,
    load_providers,
)
from .evaluation import (
    MetricsReport,
    classify_syneq,
    compute_metrics,
    f1_score,
)
from .diffs import apply_patch

__version__ = "0.1.0"
