"""In-memory spans around calls into operadix, and their per-layer summary.

A span is ``[parent, rid, what, start_ns, end_ns]``; its id is its index
in ``Tracer.spans``.  ``what`` is a string for the benchmark's own spans
(``request``, ``reconstruct``) and the called function otherwise, named
``<module>.<function>`` only when the summary is made, so that recording
stays cheap.

A ``reconstruct`` span holds calls re-driven after a request, outside its
interval, to split the time of one opaque call into the layers it uses
(see README.md).  In the busy-time split those calls count as children of
the opaque call that the reconstruct span's parent names: their time goes
to their own module and is taken off the module of that call.
"""

from __future__ import annotations

from time import perf_counter_ns

REQUEST = "request"
RECONSTRUCT = "reconstruct"


def span_name(what) -> str:
    if isinstance(what, str):
        return what
    return f"{what.__module__.rsplit('.', 1)[-1]}.{what.__name__}"


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    """The smallest sample with at least pct percent of samples at or below it."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []

    def open(self, what, parent: int, rid: int) -> int:
        self.spans.append([parent, rid, what, perf_counter_ns(), 0])
        return len(self.spans) - 1

    def close(self, sid: int) -> None:
        self.spans[sid][4] = perf_counter_ns()

    def caller(self, parent: int, rid: int):
        """A ``call(fn, *args)`` that records one span per call under parent."""
        spans = self.spans

        def call(fn, *args):
            start = perf_counter_ns()
            out = fn(*args)
            spans.append([parent, rid, fn, start, perf_counter_ns()])
            return out

        return call

    def last_child(self, parent: int) -> int:
        for sid in range(len(self.spans) - 1, parent, -1):
            if self.spans[sid][0] == parent:
                return sid
        raise LookupError(f"span {parent} has no child")

    def summary(self) -> dict:
        """Per-function calls and percentiles, per-module busy time."""
        names = [span_name(s[2]) for s in self.spans]
        durations: dict[str, list[int]] = {}
        request_ns = 0
        busy_ns: dict[str, int] = {}
        for sid, (parent, _rid, _what, start, end) in enumerate(self.spans):
            name, dur = names[sid], end - start
            if name == REQUEST:
                request_ns += dur
                continue
            if name == RECONSTRUCT:
                continue
            durations.setdefault(name, []).append(dur)
            if parent < 0:
                continue
            module = name.split(".", 1)[0]
            if names[parent] == REQUEST:
                busy_ns[module] = busy_ns.get(module, 0) + dur
            elif names[parent] == RECONSTRUCT:
                opaque = names[self.spans[parent][0]].split(".", 1)[0]
                busy_ns[module] = busy_ns.get(module, 0) + dur
                busy_ns[opaque] = busy_ns.get(opaque, 0) - dur
        functions = {}
        for name, values in sorted(durations.items()):
            values.sort()
            functions[name] = {
                "calls": len(values),
                "total_s": sum(values) / 1e9,
                "us_p50": nearest_rank(values, 50) / 1e3,
                "us_p90": nearest_rank(values, 90) / 1e3,
                "us_p99": nearest_rank(values, 99) / 1e3,
            }
        modules = {
            module: {"busy_s": ns / 1e9, "busy_share": ns / request_ns if request_ns else 0.0}
            for module, ns in sorted(busy_ns.items())
        }
        return {"request_s": request_ns / 1e9, "functions": functions, "modules": modules}

    def write(self, path) -> None:
        """One tab-separated line per span, times in ns from the first span."""
        origin = self.spans[0][3] if self.spans else 0
        with open(path, "w", encoding="utf-8") as out:
            out.write("sid\tparent\trid\tname\tstart_ns\tend_ns\n")
            for sid, (parent, rid, what, start, end) in enumerate(self.spans):
                out.write(f"{sid}\t{parent}\t{rid}\t{span_name(what)}\t{start - origin}\t{end - origin}\n")

