"""Per-layer spans and counts, recorded by wrapping topodyn from outside.

Each wrapped function is replaced under the name its callers look it up by
(a module global or a class attribute), so nothing under ``src/`` changes.
A span records name, start, end, parent span and op id.  Self time, a span's
duration minus the time its child spans cover, is summed per name as spans
close; the span records themselves are kept in memory, up to a cap, and
written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.self_ns: defaultdict = defaultdict(int)
        self.stack: list[list] = []  # open spans: [span id, child ns]
        self.spans: list[tuple] = []  # (name, start ns, end ns, parent id, op id)
        self.dropped = 0
        self.op = -1
        self.op_self_ns = 0  # self time summed over the current op's spans
        self.op_root_ns = 0  # duration of the current op's root spans
        self.op_roots = 0
        self.opened = 0  # spans opened so far; also the next span's id
        self.depth: Counter = Counter()  # open spans per name
        self._patches: list[tuple] = []

    # -- span bookkeeping ------------------------------------------------------------

    def _open(self) -> list:
        frame = [self.opened, 0]
        self.opened += 1
        self.stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: int, end: int) -> None:
        self.stack.pop()
        duration = end - start
        own = duration - frame[1]
        self.self_ns[name] += own
        self.op_self_ns += own
        parent = -1
        if self.stack:
            self.stack[-1][1] += duration
            parent = self.stack[-1][0]
        else:
            self.op_root_ns += duration
            self.op_roots += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((name, start, end, parent, self.op))
        else:
            self.dropped += 1

    def timed(self, name, fn, count=True, outermost=False, after=None, on_error=None):
        """Wrap fn in a span.  With outermost, calls made while a span of the
        same name is open run unwrapped and uncounted (recursion folds into
        the outer span).  ``after`` sees each result; ``on_error`` each
        exception, which is re-raised."""
        perf = time.perf_counter_ns
        depth = self.depth
        counts = self.counts

        def wrapper(*args, **kwargs):
            if outermost and depth[name]:
                return fn(*args, **kwargs)
            depth[name] += 1
            frame = self._open()
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = perf()
                depth[name] -= 1
                self._close(name, frame, start, end)
                if count:
                    counts[name + ".calls"] += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, key, fn, span_name=None):
        """Count every call; with span_name, the outermost call also opens a
        span under that name (nested calls are only counted)."""
        counts = self.counts
        if span_name is None:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        spanned = self.timed(span_name, fn, count=False, outermost=True)
        depth = self.depth

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if depth[span_name]:
                return fn(*args, **kwargs)
            return spanned(*args, **kwargs)

        return wrapper

    def timed_generator(self, name, fn, per_item):
        """Span each step of a generator; count the items it yields."""
        perf = time.perf_counter_ns
        counts = self.counts

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = self._open()
                start = perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, frame, start, perf())
                counts[per_item] += 1
                yield item

        return wrapper

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_self_ns = self.op_root_ns = self.op_roots = 0

    def end_op(self) -> str | None:
        """After an op: None if its spans are consistent, else why not.  Every
        span it opened must be closed, there must be one root span, and the
        self times must add up to the root span's duration exactly.  Clears
        what was left open so the next op starts clean."""
        open_names = sorted(name for name, n in self.depth.items() if n)
        if self.stack or open_names:
            why = f"{len(self.stack)} spans left open ({', '.join(open_names) or 'unnamed'})"
            self.stack.clear()
            self.depth.clear()
            return why
        if self.op_roots != 1:
            return f"{self.op_roots} root spans, expected 1"
        if self.op_self_ns != self.op_root_ns:
            return (f"span self times add up to {self.op_self_ns} ns, "
                    f"the root span lasts {self.op_root_ns} ns")
        return None

    # -- patching ------------------------------------------------------------------------

    def patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of topodyn.  ``tracer.unpatch()`` undoes it."""
    # the package re-exports a function named announce, so fetch modules by name
    (announce, checker, cli, formula, frameprops, harness, models, proofkit, topology,
     transform) = (importlib.import_module(f"topodyn.{name}") for name in (
        "announce", "checker", "cli", "formula", "frameprops", "harness", "models",
        "proofkit", "topology", "transform"))
    t = tracer
    counts = t.counts

    def everywhere(modules, attr, wrapper):
        for module in modules:
            t.patch(module, attr, wrapper)

    # cli: the op's root span
    t.patch(cli, "main", t.timed("cli.main", cli.main, count=False))

    # formula
    everywhere((cli, proofkit), "parse", t.timed("formula.parse", formula.parse))
    everywhere((cli, harness, transform, formula), "format_formula",
               t.timed("formula.format_formula", formula.format_formula))

    # harness
    t.patch(harness, "gen_model", t.timed("harness.gen_model", harness.gen_model))
    t.patch(harness, "gen_formula",
            t.timed("harness.gen_formula", harness.gen_formula, outermost=True))
    t.patch(harness, "audit", t.timed("harness.audit", harness.audit, count=False))
    t.patch(harness, "search_countermodel",
            t.timed("harness.search_countermodel", harness.search_countermodel, count=False))
    searching = t.depth

    def evaluated(_result):
        if searching["harness.search_countermodel"]:
            counts["harness.search.models_evaluated"] += 1

    # proofkit
    t.patch(harness, "instantiate_scheme",
            t.timed("proofkit.instantiate_scheme", proofkit.instantiate_scheme))
    t.patch(proofkit, "check_derivation",
            t.timed("proofkit.check_derivation", proofkit.check_derivation))

    # checker
    t.patch(checker, "eval_dtl", t.timed("checker.eval_dtl", checker.eval_dtl, after=evaluated))
    t.patch(checker, "eval_pdl_relational",
            t.timed("checker.eval_pdl_relational", checker.eval_pdl_relational, after=evaluated))
    ev = checker.SubsetEvaluator
    init = t.counted("checker.subset.evaluators", ev.__init__)

    def subset_init(self, model):
        init(self, model)
        evaluated(None)

    t.patch(ev, "__init__", subset_init)
    t.patch(ev, "extension",
            t.counted("checker.subset.extension.calls", ev.extension, span_name="checker.subset"))

    # topology
    space = topology.TopoSpace
    construct = t.timed("topology.TopoSpace", lambda f, *a, **k: f(*a, **k), outermost=True)
    t.patch(space, "__post_init__", _method(construct, space.__post_init__))
    for name in ("from_json", "from_preorder", "from_subbasis", "from_opens"):
        t.patch(space, name, classmethod(_method(construct, space.__dict__[name].__func__)))
    t.patch(space, "opens_sorted", t.timed("topology.opens_sorted", space.opens_sorted))
    t.patch(space, "interior", t.counted("topology.interior.calls", space.interior))
    t.patch(space, "closure", t.counted("topology.closure.calls", space.closure))
    t.patch(harness, "all_topologies", t.timed_generator(
        "topology.all_topologies", topology.all_topologies, "topology.all_topologies.spaces"))

    # frameprops: the CLI looks the deciders up on frameprops, the harness on itself
    for name in ("is_open_map", "is_continuous"):
        key = f"frameprops.{name}"

        def accepted(report, key=key):
            if report.holds:
                counts[key + ".accepted"] += 1

        everywhere((frameprops, harness), name, t.timed(key, getattr(frameprops, name), after=accepted))
    t.patch(frameprops, "validates_scheme",
            t.timed("frameprops.validates_scheme", frameprops.validates_scheme))

    # models
    t.patch(cli, "model_from_json", t.timed("models.model_from_json", models.model_from_json))
    t.patch(cli, "validate", t.timed("models.validate", models.validate))
    everywhere((cli, harness), "model_to_json", t.timed("models.model_to_json", models.model_to_json))
    everywhere((checker, models), "program_function",
               t.timed("models.program_function", models.program_function))

    # announce
    t.patch(cli, "check_test_announcement_identity",
            t.timed("announce.check_test_announcement_identity",
                    announce.check_test_announcement_identity))

    # transform
    def built(space):
        counts["transform.networks"] += sum(space.stratum_sizes())

    def refused(exc):
        if isinstance(exc, transform.BudgetExceeded):
            counts["transform.refused"] += 1

    def checked(report):
        counts["transform.checked"] += report.checked

    t.patch(transform, "build_network_space", t.timed(
        "transform.build_network_space", transform.build_network_space,
        after=built, on_error=refused))
    t.patch(transform, "network_extension",
            t.timed("transform.network_extension", transform.network_extension))
    t.patch(transform, "check_truth_preservation", t.timed(
        "transform.check_truth_preservation", transform.check_truth_preservation,
        count=False, after=checked))
    t.patch(transform, "network_space_to_json",
            t.timed("transform.network_space_to_json", transform.network_space_to_json))


def _method(wrapped_call, fn):
    """Route a method through a span wrapper that takes the function first."""
    def method(*args, **kwargs):
        return wrapped_call(fn, *args, **kwargs)
    return method
