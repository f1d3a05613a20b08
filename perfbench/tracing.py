"""Spans around calls into the program's layers, for the traced run.

Each traced public function is replaced, in every knotrho module namespace
that holds it, by a wrapper that records a span: name, start, end, parent
span and query id.  Modules import these names directly, so replacing the
definition alone would miss most callers.  Spans live in flat arrays and are
written out once, when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array

# Span name -> (module, attribute names) of the public functions it covers.
FUNCTION_SPANS = {
    "cyclotomic.eval_with_bound": ("knotrho.cyclotomic", ("eval_with_bound",)),
    "cyclotomic.certified_sign": ("knotrho.cyclotomic", ("certified_sign",)),
    "cyclotomic.cyclotomic_polynomial": ("knotrho.cyclotomic", ("cyclotomic_polynomial",)),
    "signature.signature_details": ("knotrho.signature", ("signature_details",)),
    "signature.avg_signature_details": ("knotrho.signature", ("avg_signature_details",)),
    "signature.alexander_polynomial": ("knotrho.signature", ("alexander_polynomial",)),
    "signature.alexander_at": ("knotrho.signature", ("alexander_at",)),
    "seifert.build": (
        "knotrho.seifert",
        ("unknot_seifert", "jn_seifert", "torus_knot_seifert", "trefoil_seifert",
         "mirror", "seifert_from_json"),
    ),
    "rho.rho_finite_cyclic": ("knotrho.rho", ("rho_finite_cyclic",)),
    "bounds.bound_report": ("knotrho.bounds", ("bound_report",)),
}
# Span name -> methods of CyclotomicElement it covers.
METHOD_SPANS = {
    "cyclotomic.element_mul": ("__mul__", "__rmul__"),
    "cyclotomic.element_conjugate": ("conjugate",),
}
CLI_SPAN = "cli.invoke"
SPAN_NAMES = tuple(FUNCTION_SPANS) + tuple(METHOD_SPANS) + (CLI_SPAN,)
RATIO_NAME = "cyclotomic.certified_sign.per_signature"


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("q")
        self.end = array("q")
        self.query_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, span: str, fn):
        nid = self.names.index(span)
        clock = time.perf_counter_ns
        stack = self._stack
        name, parent, query, start, end = self.name, self.parent, self.query, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            query.append(self.query_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, new)

    def install(self, cli_group=None) -> None:
        """Wrap every traced function wherever a knotrho module binds it.  A
        name the program no longer defines is skipped; its span reads 0."""
        modules = [m for n, m in sys.modules.items() if n == "knotrho" or n.startswith("knotrho.")]
        for span, (modname, attrs) in FUNCTION_SPANS.items():
            home = sys.modules.get(modname)
            for attr in attrs:
                original = getattr(home, attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(span, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, wrapper)
        element = getattr(sys.modules.get("knotrho.cyclotomic"), "CyclotomicElement", None)
        for span, attrs in METHOD_SPANS.items():
            if element is None or attrs[0] not in vars(element):
                continue
            wrapper = self.wrap(span, vars(element)[attrs[0]])
            for attr in attrs:
                if attr in vars(element):
                    self._replace(element, attr, wrapper)
        if cli_group is not None:
            # Group.__call__ and callers both reach the instance attribute.
            self._replace(cli_group, "main", self.wrap(CLI_SPAN, cli_group.main))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self) -> dict:
        import numpy as np

        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "query": np.array(self.query, dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
        }

    def layer_metrics(self, queries: int) -> dict:
        """Per span name: calls and self seconds per completed query, plus the
        certified_sign-per-signature_details ratio.  Self time is a span's
        duration minus the durations of its direct children."""
        import numpy as np

        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=dur - child, minlength=k) / 1e9
        per = max(queries, 1)
        out = {}
        for i, span in enumerate(self.names):
            out[f"{span}.calls"] = {"value": float(calls[i]) / per, "unit": "calls/query"}
            out[f"{span}.self_s"] = {"value": float(self_s[i]) / per, "unit": "s/query"}
        sig = calls[self.names.index("signature.signature_details")]
        cs = calls[self.names.index("cyclotomic.certified_sign")]
        out[RATIO_NAME] = {"value": float(cs) / sig if sig else 0.0, "unit": "calls/call"}
        return out

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), **self.arrays())
