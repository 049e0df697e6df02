"""Program model: mini-C frontend, dependence graphs, and graph exchange."""

from .model import (
    CodeModelError,
    DependenceGraph,
    ExternalInputSet,
    FunctionDef,
    GraphFormatError,
    ParseError,
    Program,
    StatementNode,
    UnknownNodeError,
    UnsupportedConstructError,
    node_id_for,
)
from .parser import parse_program
from .sdg import DEFAULT_EXTERNAL_FUNCTIONS, build_sdg, identify_external_inputs
from .interchange import dump_graph, export_graph, import_graph

__all__ = [
    "CodeModelError",
    "DEFAULT_EXTERNAL_FUNCTIONS",
    "DependenceGraph",
    "ExternalInputSet",
    "FunctionDef",
    "GraphFormatError",
    "ParseError",
    "Program",
    "StatementNode",
    "UnknownNodeError",
    "UnsupportedConstructError",
    "build_sdg",
    "dump_graph",
    "export_graph",
    "identify_external_inputs",
    "import_graph",
    "node_id_for",
    "parse_program",
]
