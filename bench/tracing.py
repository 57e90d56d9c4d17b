"""Outside-in span tracing of the ``msfactor`` layers.

The tracer replaces public functions at the module attributes their
callers look up (``msfactor.em.regime_log_densities`` is what ``run_em``
calls, for instance), records one span per call, and restores the
originals on exit. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field


def _shape_counts(name: str, args) -> dict[str, float]:
    """Work counts of one call, derived from argument shapes."""
    if name in ("filtering.filter", "filtering.smoother"):
        return {"periods": args[0].shape[0]}
    if name in ("filtering.log_densities", "em.m_variances"):
        t_len, n = args[0].data.shape
        k = args[1].shape[1]
        # per regime: g @ b' (2TNk), then subtract, square, scale and sum (4TN)
        return {"flops": 2 * (2 * t_len * n * k + 4 * t_len * n)}
    return {}


#: (module, attribute, span name). The span's layer is the name's prefix.
TARGETS = [
    ("msfactor.montecarlo", "run_montecarlo", "montecarlo.run"),
    ("msfactor.montecarlo", "run_replication", "montecarlo.replication"),
    ("msfactor.montecarlo", "simulate_panel", "simulate.panel"),
    ("msfactor.montecarlo", "estimate_factor_space", "pca.factor_space"),
    ("msfactor.montecarlo", "run_em", "em.run"),
    ("msfactor.montecarlo", "regime_blend_matrix", "metrics.blend"),
    ("msfactor.montecarlo", "blended_loadings", "metrics.blended_loadings"),
    ("msfactor.montecarlo", "fitted_common_component", "metrics.fitted"),
    ("msfactor.montecarlo", "trace_r2", "metrics.trace_r2"),
    ("msfactor.montecarlo", "common_component_mse", "metrics.mse"),
    ("msfactor.em", "init_params", "em.init"),
    ("msfactor.em", "regime_log_densities", "filtering.log_densities"),
    ("msfactor.em", "filter_smoother_pass", "filtering.pass"),
    ("msfactor.em", "m_step_loadings", "em.m_loadings"),
    ("msfactor.em", "m_step_variances", "em.m_variances"),
    ("msfactor.em", "m_step_transition", "em.m_transition"),
    ("msfactor.em", "relabel_states", "em.relabel"),
    ("msfactor.filtering", "hamilton_filter", "filtering.filter"),
    ("msfactor.filtering", "kim_smoother", "filtering.smoother"),
    ("msfactor.filtering", "smoothed_cross_probs", "filtering.cross"),
    ("msfactor.cli", "main", "cli.main"),
    ("msfactor.cli", "load_panel_csv", "io.load_csv"),
    ("msfactor.cli", "demean_panel", "pca.demean"),
    ("msfactor.cli", "select_num_factors_er", "pca.select"),
    ("msfactor.cli", "estimate_factor_space", "pca.factor_space"),
    ("msfactor.cli", "run_em", "em.run"),
    ("msfactor.cli", "save_matrix_csv", "io.write"),
    ("msfactor.cli", "write_json", "io.write"),
]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_json(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "start": self.start, "end": self.end, "self": self.self_time,
            **({"counts": self.counts} if self.counts else {}),
        }


class Tracer:
    """Records spans around the functions in :data:`TARGETS` while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, name,
                    time.perf_counter(), counts=_shape_counts(name, args))
        self.spans.append(span)
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_time += span.duration

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
