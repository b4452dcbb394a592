"""Tests for the CLI entry point and the parallel-sharing simulation."""

import pytest

from repro.__main__ import main
from repro.chip.generator import ChipSpec, generate_chip
from repro.grid.tracks import build_track_plan
from repro.groute.capacity import estimate_capacities
from repro.groute.graph import GlobalRoutingGraph
from repro.groute.resources import ResourceModel
from repro.groute.sharing import (
    ResourceSharingSolver,
    solve_parallel_simulated,
)


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
        serial = ResourceSharingSolver(
            graph, model, phases=10, reuse_threshold=1.0
        ).solve(routable)
        parallel = solve_parallel_simulated(
            graph, model, routable, threads=4, phases=10
        )
        assert parallel.max_congestion <= serial.max_congestion * 1.15

    def test_weights_are_distributions(self, setup):
        graph, model, routable = setup
        parallel = solve_parallel_simulated(
            graph, model, routable, threads=3, phases=6
        )
        for net in routable:
            weights = parallel.weights[net.name]
            assert abs(sum(weights.values()) - 1.0) < 1e-9

    def test_landmarks_reach_the_oracle(self, setup, monkeypatch):
        """``use_landmarks=True`` hands the landmark potentials to every
        oracle call of the simulation, as in the serial solver."""
        graph, model, routable = setup
        factory_of = ResourceSharingSolver._potential_factory
        target_sets = []

        def spying(solver):
            factory = factory_of(solver)
            assert factory is not None

            def spy(targets):
                target_sets.append(frozenset(targets))
                return factory(targets)

            return spy

        monkeypatch.setattr(ResourceSharingSolver, "_potential_factory", spying)
        parallel = solve_parallel_simulated(
            graph, model, routable, threads=2, phases=2,
            use_landmarks=True, landmark_count=3,
        )
        assert parallel.oracle_calls > 0
        # At least one target set per oracle call of a multi-pin net.
        assert len(target_sets) >= parallel.oracle_calls

    def test_single_thread_equals_serial_structure(self, setup):
        graph, model, routable = setup
        one = solve_parallel_simulated(
            graph, model, routable, threads=1, phases=5
        )
        serial = ResourceSharingSolver(
            graph, model, phases=5, reuse_threshold=1.0
        ).solve(routable)
        # threads=1 applies updates net by net - identical to the serial
        # algorithm, so the fractional solutions must coincide.
        assert one.weights == serial.weights
