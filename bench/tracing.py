"""In-memory spans around calls into appatch's public functions.

The tracer wraps functions where their calling modules look them up, so
nested calls (``cli`` -> ``exemplars.mining_slice`` ->
``scoping.vulnerability_semantics``) each get a span.  Nothing under
``src/`` is edited: wrappers are installed for a traced pass and removed
after it.  Hooks count work at the same boundaries (nodes, pairs,
comparisons, prompt bytes).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# span name -> (module, attribute) of the public function it times
TRACED_FUNCTIONS: Dict[str, Tuple[str, str]] = {
    "parser.parse_program": ("appatch.code_model.parser", "parse_program"),
    "sdg.build_sdg": ("appatch.code_model.sdg", "build_sdg"),
    "sdg.identify_external_inputs": ("appatch.code_model.sdg", "identify_external_inputs"),
    "interchange.import_graph": ("appatch.code_model.interchange", "import_graph"),
    "scoping.vulnerability_semantics": ("appatch.scoping", "vulnerability_semantics"),
    "scoping.render_slice": ("appatch.scoping", "render_slice"),
    "exemplars.load_dataset": ("appatch.exemplars", "load_dataset"),
    "exemplars.mining_slice": ("appatch.exemplars", "mining_slice"),
    "exemplars.build_pool": ("appatch.exemplars", "build_pool"),
    "exemplars.load_pool": ("appatch.exemplars", "load_pool"),
    "exemplars.save_pool": ("appatch.exemplars", "save_pool"),
    "prompting.generate_root_cause": ("appatch.prompting", "generate_root_cause"),
    "prompting.select_exemplars": ("appatch.prompting", "select_exemplars"),
    "prompting.generate_patches": ("appatch.prompting", "generate_patches"),
    "validation.validate_all": ("appatch.validation", "validate_all"),
    "diffs.apply_patch": ("appatch.diffs", "apply_patch"),
    "evaluation.classify_syneq": ("appatch.evaluation", "classify_syneq"),
    "evaluation.compute_metrics": ("appatch.evaluation", "compute_metrics"),
}

# prompt kind -> builder; counted (bytes of the built prompt), not timed
PROMPT_BUILDERS: Dict[str, Tuple[str, str]] = {
    "mining": ("appatch.prompts", "build_mining_prompt"),
    "root_cause": ("appatch.prompts", "build_root_cause_prompt"),
    "comparison": ("appatch.prompts", "build_comparison_prompt"),
    "patch": ("appatch.prompts", "build_patch_prompt"),
    "validation": ("appatch.prompts", "build_validation_prompt"),
}


def _lines(text: str) -> int:
    return text.count("\n") + 1 if text else 0


def _count(counters: Dict[str, float], name: str, args: tuple, result: Any) -> None:
    """Work counters recorded when the span ``name`` returns."""
    if name == "parser.parse_program":
        counters["parser.lines"] += sum(text.count("\n") for _, text in args[0])
    elif name == "sdg.build_sdg":
        counters["sdg.nodes"] += len(result.nodes)
        counters["sdg.edges"] += len(result.edges)
    elif name == "sdg.identify_external_inputs":
        counters["sdg.external_inputs"] += len(result.ids)
    elif name == "interchange.import_graph":
        doc = args[0]
        counters["interchange.graph_bytes"] += len(doc.encode("utf-8")) if isinstance(doc, str) else 0
    elif name == "scoping.vulnerability_semantics":
        counters["scoping.pairs_total"] += len(args[2].ids) * len(result.sv_ids)
        counters["scoping.slice_nodes"] += len(result.node_ids)
    elif name == "scoping.render_slice":
        counters["scoping.rendered_lines"] += _lines(result.text)
    elif name == "exemplars.build_pool":
        counters["exemplars.mined"] += len(result[0])
        counters["exemplars.failed"] += len(result[1])
    elif name == "prompting.generate_root_cause":
        counters["prompting.demand_rounds"] += result[0].iterations - 1
    elif name == "prompting.select_exemplars":
        counters["prompting.chosen"] += len(result[0])
        counters["prompting.comparisons"] += len(result[1])
    elif name == "prompting.generate_patches":
        counters["prompting.candidates"] += len(result[0])
    elif name == "validation.validate_all":
        retained, verdicts, _ = result
        counters["validation.judgements"] += sum(len(v.answers) for v in verdicts)
        counters["validation.judged"] += len(verdicts)
        counters["validation.retained"] += len(retained)


class Tracer:
    """Span recorder: one list of spans plus a stack of open ones.

    A span is ``[name, start, end, parent index, sample id, failed]``.
    The process is single-threaded (``--jobs 1``), so one stack is exact.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.sample = ""
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # spans -----------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.sample, False])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, start: float, end: float, failed: bool = False) -> None:
        span = self.spans[index]
        span[1], span[2], span[5] = start, end, failed
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]} closed out of order")

    def _timed(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(index, start, time.perf_counter(), failed=True)
                raise
            tracer.close(index, start, time.perf_counter())
            _count(tracer.counters, name, args, result)
            return result

        return wrapper

    def _sized(self, kind: str, fn: Callable) -> Callable:
        counters = self.counters

        def wrapper(*args, **kwargs):
            prompt = fn(*args, **kwargs)
            counters[f"prompts.bytes.{kind}"] += len(prompt.encode("utf-8"))
            return prompt

        return wrapper

    # installation ----------------------------------------------------------

    def _rebind(self, original: Any, replacement: Any) -> None:
        """Replace ``original`` in every appatch module that binds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("appatch"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        for name, (module_name, attr) in TRACED_FUNCTIONS.items():
            original = getattr(importlib.import_module(module_name), attr)
            self._rebind(original, self._timed(name, original))
        for kind, (module_name, attr) in PROMPT_BUILDERS.items():
            original = getattr(importlib.import_module(module_name), attr)
            self._rebind(original, self._sized(kind, original))
        gateway = importlib.import_module("appatch.gateway")
        # The configured providers are CachedProvider instances; their
        # inner providers run through the base Provider.complete.
        for cls in (gateway.CachedProvider, gateway.Provider):
            original = cls.__dict__["complete"]
            setattr(cls, "complete", self._timed("gateway.complete", original))
            self._patched.append((cls, "complete", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def self_times(spans: List[list]) -> Dict[int, float]:
    """Span index -> duration minus the time its direct children cover."""
    child = defaultdict(float)
    for name, start, end, parent, _sample, _failed in spans:
        if parent >= 0:
            child[parent] += end - start
    return {i: (s[2] - s[1]) - child[i] for i, s in enumerate(spans)}


def check_nesting(spans: List[list], tolerance: float = 1e-9) -> Optional[str]:
    """First span that is not inside its parent, or that overlaps a sibling."""
    last_end: Dict[int, float] = {}
    for i, (name, start, end, parent, _sample, _failed) in enumerate(spans):
        if end < start:
            return f"span {i} ({name}) ends before it starts"
        if parent >= 0:
            p = spans[parent]
            if start < p[1] - tolerance or end > p[2] + tolerance:
                return f"span {i} ({name}) lies outside its parent {p[0]}"
        if start < last_end.get(parent, float("-inf")) - tolerance:
            return f"span {i} ({name}) overlaps an earlier sibling"
        last_end[parent] = end
    return None
