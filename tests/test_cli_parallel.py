"""Tests for the CLI entry point and the parallel-sharing simulation."""

import pytest

from repro.__main__ import main
from repro.chip.generator import ChipSpec, generate_chip
from repro.grid.tracks import build_track_plan
from repro.groute.capacity import estimate_capacities
from repro.groute.graph import GlobalRoutingGraph
from repro.groute.resources import ResourceModel
from repro.groute.sharing import (
    EPSILON,
    ResourceSharingSolver,
    _solution_key,
)
from repro.groute.steiner_oracle import path_composition_steiner_tree


class TestCli:
    def test_generate_and_route(self, tmp_path):
        chip_path = str(tmp_path / "chip.txt")
        routes_path = str(tmp_path / "routes.txt")
        assert main([
            "generate", chip_path, "--rows", "2", "--cells", "4",
            "--nets", "4", "--seed", "2",
        ]) == 0
        assert main([
            "route", chip_path, routes_path, "--gr-phases", "6",
            "--no-cleanup",
        ]) == 0
        content = open(routes_path).read()
        assert content.startswith("ROUTES")
        assert "WIRE" in content

    def test_drc_command(self, tmp_path, capsys):
        chip_path = str(tmp_path / "chip.txt")
        routes_path = str(tmp_path / "routes.txt")
        main(["generate", chip_path, "--rows", "2", "--cells", "4",
              "--nets", "4", "--seed", "2"])
        main(["route", chip_path, routes_path, "--gr-phases", "6",
              "--no-cleanup"])
        capsys.readouterr()
        code = main(["drc", chip_path, routes_path])
        out = capsys.readouterr().out
        assert "errors:" in out
        assert code in (0, 1)

    def test_render_command(self, tmp_path, capsys):
        chip_path = str(tmp_path / "chip.txt")
        main(["generate", chip_path, "--rows", "2", "--cells", "4",
              "--nets", "4", "--seed", "2"])
        capsys.readouterr()
        assert main(["render", chip_path, "--layer", "1", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "layer M1" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestParallelSharing:
    @pytest.fixture(scope="class")
    def setup(self):
        chip = generate_chip(
            ChipSpec("parsh", rows=3, row_width_cells=6, net_count=10, seed=7)
        )
        graph = GlobalRoutingGraph(chip)
        estimate_capacities(graph, build_track_plan(chip))
        for edge in list(graph.capacities):
            graph.capacities[edge] *= 0.4
        routable = [n for n in chip.nets if not graph.is_local_net(n)]
        model = ResourceModel(graph, chip.nets)
        return graph, model, routable

    def test_parallel_matches_serial_quality(self, setup):
        """Sec. 5.1: volatility-tolerant block solving keeps the guarantee.

        Stale price reads within a block must not degrade the congestion
        meaningfully compared to strictly serial updates.
        """
        graph, model, routable = setup
        serial = ResourceSharingSolver(graph, model, phases=10)
        serial.reuse_threshold = 1.0
        serial = serial.solve(routable)
        parallel = ResourceSharingSolver(
            graph, model, phases=10, threads=4
        ).solve(routable)
        assert parallel.max_congestion <= serial.max_congestion * 1.15

    def test_weights_are_distributions(self, setup):
        graph, model, routable = setup
        parallel = ResourceSharingSolver(
            graph, model, phases=6, threads=3
        ).solve(routable)
        for net in routable:
            weights = parallel.weights[net.name]
            assert abs(sum(weights.values()) - 1.0) < 1e-9

    def test_one_block_reads_the_initial_prices(self, setup):
        """With every net in one block, each oracle sees the initial
        prices and the prices move only after the block: each net's
        solution is its oracle tree under those prices, and the final
        log-prices are EPSILON times the block's summed usages."""
        graph, model, routable = setup
        initial = ResourceSharingSolver(graph, model)
        edge_cost, _memo, _spacing = initial._edge_cost_fn()
        expected = {}
        log_prices = {}
        for net in routable:
            tree = path_composition_steiner_tree(
                graph, net.name, graph.net_terminals(net), edge_cost
            )
            key = _solution_key(tree)
            expected[net.name] = {key: 1.0}
            edge_usage, global_usage = initial._usages(net.name, key)
            for usages in (edge_usage, global_usage):
                for resource, usage in usages.items():
                    if usage > 0:
                        log_prices[resource] = (
                            log_prices.get(resource, 0.0) + EPSILON * usage
                        )
        solver = ResourceSharingSolver(
            graph, model, phases=1, threads=len(routable)
        )
        fractional = solver.solve(routable)
        assert fractional.oracle_calls == len(routable)
        assert fractional.weights == expected
        assert solver._log_price == log_prices
