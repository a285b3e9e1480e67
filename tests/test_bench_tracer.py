"""The benchmark's tracer wraps topodyn's functions under the module globals
their callers look them up by, so a rename under src/ must fail here rather
than in a benchmark run."""

import importlib.util
import json
from pathlib import Path

from topodyn import checker, cli, harness
from topodyn.formula import parse
from topodyn.harness import GenConfig, gen_model
from topodyn.models import model_to_json
from topodyn.topology import TopoSpace, representative_topologies
from topodyn.transform import stratum_counts

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_search_and_unpatches():
    # the search filters a space's maps once per process; start with none
    # filtered, so the count below does not depend on the tests run before
    harness._class_maps.cache_clear()
    tracing = _load_tracing()
    search, eval_dtl = harness.search_countermodel, checker.eval_dtl
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert harness.search_countermodel is not search
        tracer.begin_op(0)
        found = harness.search_countermodel(parse("p -> O[a] p"), bound=2, model_class="dtl_open")
        assert found is not None and tracer.end_op() is None
        counts = tracer.counts
        # the search reaches the evaluator and the deciders through the
        # wrapped names: every map of each representative space up to the
        # countermodel's is filtered, and no labelled topology is listed
        assert counts["harness.search.models_evaluated"] == counts["checker.eval_dtl.calls"] > 0
        model, n = found[0], found[0].n
        index = representative_topologies(n).index(model.space)
        filtered = sum(len(representative_topologies(m)) * m**m for m in range(1, n))
        assert counts["frameprops.is_open_map.calls"] == filtered + (index + 1) * n**n
        assert counts["topology.all_topologies.spaces"] == 0
    finally:
        tracer.unpatch()
    assert harness.search_countermodel is search and checker.eval_dtl is eval_dtl


def test_each_space_construction_is_one_topology_span():
    """The table check in ``__post_init__`` folds into the span of the
    constructor that calls it, so a space built either way counts once."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    chain = [(x, y) for x in range(3) for y in range(x, 3)]
    builds = [lambda: TopoSpace(3, (0b111, 0b110, 0b100)),
              lambda: TopoSpace.from_preorder(3, chain)]
    try:
        tracing.install(tracer)
        for op, build in enumerate(builds):
            tracer.begin_op(op)
            build()
            assert tracer.end_op() is None
            assert [span[0] for span in tracer.spans if span[4] == op] == ["topology.TopoSpace"]
    finally:
        tracer.unpatch()
    assert tracer.counts["topology.TopoSpace.calls"] == 2


def test_tracer_counts_the_networks_of_a_transform_op(tmp_path, capsys):
    """The transform counters read the space and the report the CLI builds,
    so a change to either must fail here rather than in a benchmark run."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    model = gen_model(GenConfig(seed=44, max_points=3, num_programs=2,
                                model_class="pdl_serial"), 4)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(model)), encoding="utf-8")
    formulas = ["<a>p -> [b]q", "[a][b]p | <b>~q"]
    argv = ["transform", "-m", str(path), "--depth", "2", "--check", "; ".join(formulas)]
    main = cli.main
    try:
        tracing.install(tracer)
        tracer.begin_op(0)
        assert cli.main(argv) == 0
        assert tracer.end_op() is None
    finally:
        tracer.unpatch()
    assert cli.main is main
    sizes = json.loads(capsys.readouterr().out)["stratum_sizes"]
    counts = tracer.counts
    assert sizes == [sum(row) for row in stratum_counts(model, 2)]
    assert counts["transform.networks"] == sum(sizes)
    assert counts["transform.checked"] == len(formulas) * sizes[-1]
    # the check list is read by formula.parse_formulas and judged by one
    # checker.evaluate_all per semantics, so neither traced layer runs
    assert counts["transform.network_extension.calls"] == 0
    assert counts["formula.parse.calls"] == 0
    assert counts["transform.build_network_space.calls"] == 1
