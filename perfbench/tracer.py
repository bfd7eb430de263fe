"""Run the qid CLI with a span around each public function of each module.

Usage: python perfbench/tracer.py SPANS_OUT qid-args...

Every traced function is rebound in each ``qid.*`` namespace that holds
it (``from .x import f`` binds ``f`` again in the importing module), so
calls between modules go through the wrapper too.  Each thread keeps
its own span stack; spans stay in memory and are written to SPANS_OUT
as JSON when the CLI returns.  ``summarize`` turns them into per-name
self times, call counts and summed counters.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

FUNCTIONS = {
    "qid._kernels": ("jacobi_eigh",),
    "qid.operators": ("validate_state", "tensor", "operator_norm"),
    "qid.channels": ("validate_channel", "vector_marginals"),
    "qid.attacks": ("make_attack",),
    "qid.protocol": ("theta_matrix", "equivalence_check"),
    "qid.distinguishability": ("support_projector", "distinguishable_partition"),
    "qid.complexity": ("expectation_identity_check",),
    "qid.tradeoff": (
        "verify_tradeoff",
        "catalogues_for",
        "landau_pollak_check",
        "shannon_tradeoff_check",
        "outcome_distribution",
        "mutual_information",
    ),
    "qid.cli": ("run_single",),
}
METHODS = (
    ("qid.protocol", "ProtocolInstance", "from_channel"),
    ("qid.complexity", "StructuredProjector", "dense"),
    ("qid.operators", "Projector", "__post_init__"),
)


# Counters recorded at the span boundary, from the call's arguments and result.
COUNTERS = {
    "make_attack": lambda args, r: {
        "kraus_ops": len(r.kraus),
        "kraus_bytes": sum(k.nbytes for k in r.kraus),
    },
    "vector_marginals": lambda args, r: {"kraus_products": len(args[0].kraus)},
    "ProtocolInstance.from_channel": lambda args, r: {"states": len(r.rho_b) + len(r.sigma_e)},
    "distinguishable_partition": lambda args, r: {"classes": len(r)},
}


class Tracer:
    """Span recorder: [name, thread, start, end, parent index, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name: str, func):
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            rec = [name, threading.get_ident(), 0.0, 0.0, stack[-1] if stack else -1, None]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(rec)
            stack.append(idx)
            rec[2] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in FUNCTIONS] + [
            importlib.import_module("qid")
        ]
        for mod_name, names in FUNCTIONS.items():
            home = sys.modules[mod_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = cls.__dict__[meth]
            name = f"{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(name, raw))


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total self seconds and summed counters."""
    child_time = [0.0] * len(spans)
    for name, _tid, start, end, parent, _c in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "counters": defaultdict(int)})
    for i, (name, _tid, start, end, _parent, counters) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        for key, value in (counters or {}).items():
            entry["counters"][key] += value
    return out


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("qid.cli")
    try:
        code = cli.main(cli_args)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
