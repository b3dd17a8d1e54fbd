"""Tests for rank placement (Algorithm 3), baselines, metrics and the
validation harness, the GOAL format and the CLI."""

import numpy as np
import pytest

from repro import CSCS_TESTBED, LatencyAnalyzer
from repro.analysis import (
    ValidationSweep,
    max_relative_error,
    mean_absolute_percentage_error,
    rmse,
    rrmse,
    run_validation_sweep,
)
from repro.apps import icon, lulesh
from repro.cli import main as cli_main
from repro.mpi import run_program
from repro.network import ArchitectureGraph, block_mapping, round_robin_mapping
from repro.network.params import LogGPSParams
from repro.placement import (
    communication_volume_matrix,
    llamp_placement,
    predicted_runtime,
    volume_greedy_placement,
)
from repro.schedgen import build_graph, dumps_goal, loads_goal
from repro.schedgen.goal import GoalFormatError

PARAMS = LogGPSParams(L=3.0, o=2.0, G=0.0001)


def clustered_app_graph(nranks=4):
    """Ranks 2i and 2i+1 talk a lot; across pairs only a little."""

    def app(comm):
        partner = comm.rank ^ 1
        far = (comm.rank + 2) % comm.size
        for it in range(6):
            comm.compute(50.0)
            if partner < comm.size:
                comm.sendrecv(partner, 8192, partner, 8192, send_tag=it, recv_tag=it)
            comm.sendrecv(far, 64, far, 64, send_tag=100 + it, recv_tag=100 + it)

    return build_graph(run_program(app, nranks))


class TestMetrics:
    def test_rmse_and_rrmse(self):
        measured = [10.0, 20.0, 30.0]
        predicted = [11.0, 19.0, 31.0]
        assert rmse(measured, predicted) == pytest.approx(1.0)
        assert rrmse(measured, predicted) == pytest.approx(1.0 / 20.0)

    def test_perfect_prediction(self):
        assert rmse([5.0, 6.0], [5.0, 6.0]) == 0.0
        assert rrmse([5.0, 6.0], [5.0, 6.0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rmse([], [])

    def test_mape_and_max_error(self):
        assert mean_absolute_percentage_error([10.0, 10.0], [9.0, 11.0]) == pytest.approx(0.1)
        assert max_relative_error([10.0, 10.0], [9.0, 12.0]) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([0.0], [1.0])


class TestValidationSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        graph = lulesh.build(4, params=CSCS_TESTBED, iterations=5)
        return run_validation_sweep(
            graph, CSCS_TESTBED, app="lulesh", delta_Ls=[0.0, 30.0, 60.0], repetitions=1,
        )

    def test_rrmse_below_two_percent(self, sweep):
        """The paper's headline accuracy claim, on our simulator ground truth."""
        assert sweep.rrmse < 0.02

    def test_rows_and_summary(self, sweep):
        rows = sweep.rows()
        assert len(rows) == 3
        assert rows[0]["delta_L_us"] == 0.0
        summary = sweep.summary()
        assert summary["app"] == "lulesh"
        assert summary["tol_1pct_us"] <= summary["tol_5pct_us"]

    def test_measured_increases_with_delta(self, sweep):
        assert sweep.measured[-1] > sweep.measured[0]

    def test_negative_delta_rejected(self):
        graph = lulesh.build(2, params=CSCS_TESTBED, iterations=2)
        with pytest.raises(ValueError):
            run_validation_sweep(graph, CSCS_TESTBED, delta_Ls=[-1.0])

    def test_noisy_measurement_still_accurate(self):
        graph = lulesh.build(2, params=CSCS_TESTBED, iterations=3)
        sweep = run_validation_sweep(
            graph, CSCS_TESTBED, delta_Ls=[0.0, 50.0], noise_sigma=0.01, repetitions=2
        )
        assert sweep.rrmse < 0.05


class TestPlacement:
    @pytest.fixture(scope="class")
    def arch(self):
        return ArchitectureGraph(num_nodes=2, processes_per_node=2,
                                 intra_node_latency=0.3, inter_node_latency=5.0)

    def test_volume_matrix_symmetric(self):
        graph = clustered_app_graph()
        volume = communication_volume_matrix(graph)
        assert np.allclose(volume, volume.T)
        assert volume[0, 1] > volume[0, 2]

    def test_volume_greedy_collocates_heavy_pairs(self, arch):
        graph = clustered_app_graph()
        mapping = volume_greedy_placement(graph, arch)
        assert mapping[0] == mapping[1]
        assert mapping[2] == mapping[3]

    def test_predicted_runtime_prefers_good_mapping(self, arch):
        graph = clustered_app_graph()
        good = predicted_runtime(graph, PARAMS, arch, [0, 0, 1, 1])
        bad = predicted_runtime(graph, PARAMS, arch, [0, 1, 0, 1])
        assert good < bad

    def test_llamp_placement_improves_bad_initial_mapping(self, arch):
        graph = clustered_app_graph()
        result = llamp_placement(graph, PARAMS, arch, initial_mapping=[0, 1, 0, 1],
                                 max_iterations=6)
        assert result.predicted_runtime <= result.initial_runtime
        assert result.improvement >= 0.0
        assert len(result.history) >= 1

    def test_llamp_placement_keeps_good_mapping(self, arch):
        graph = clustered_app_graph()
        result = llamp_placement(graph, PARAMS, arch, initial_mapping=[0, 0, 1, 1],
                                 max_iterations=4)
        assert result.predicted_runtime <= result.initial_runtime * (1 + 1e-9)

    def test_capacity_respected(self, arch):
        graph = clustered_app_graph()
        with pytest.raises(ValueError):
            volume_greedy_placement(clustered_app_graph(8), arch)
        with pytest.raises(ValueError):
            llamp_placement(graph, PARAMS, arch, initial_mapping=[0, 0, 1])


class TestGoalFormat:
    def test_round_trip(self):
        graph = lulesh.build(2, params=CSCS_TESTBED, iterations=2)
        text = dumps_goal(graph)
        restored = loads_goal(text)
        assert restored.num_vertices == graph.num_vertices
        assert restored.num_messages == graph.num_messages
        # runtimes agree up to the 1 ns rounding of GOAL calc costs
        a = LatencyAnalyzer(graph, CSCS_TESTBED).predict_runtime()
        b = LatencyAnalyzer(restored, CSCS_TESTBED).predict_runtime()
        assert b == pytest.approx(a, rel=1e-4)

    def test_files(self, tmp_path):
        from repro.schedgen import dump_goal, load_goal

        graph = lulesh.build(2, params=CSCS_TESTBED, iterations=1)
        path = tmp_path / "schedule.goal"
        dump_goal(graph, path)
        assert load_goal(path).num_vertices == graph.num_vertices

    def test_malformed_input_rejected(self):
        with pytest.raises(GoalFormatError):
            loads_goal("this is not goal")
        with pytest.raises(GoalFormatError):
            loads_goal("num_ranks 1\nrank 0 {\n  l1: dance 5\n}\n")
        with pytest.raises(GoalFormatError):
            loads_goal("num_ranks 2\nrank 0 {\n  l1: send 8b to 1 tag 0\n}\nrank 1 {\n}\n")


class TestCLI:
    def test_analyze_json(self, capsys):
        assert cli_main(["analyze", "lulesh", "--nranks", "2", "--json"]) == 0
        out = capsys.readouterr().out
        assert '"lambda_L"' in out

    def test_analyze_human(self, capsys):
        assert cli_main(["analyze", "icon", "--nranks", "2"]) == 0
        assert "latency tolerance" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert cli_main(["sweep", "lulesh", "--nranks", "2", "--points", "3",
                         "--max-delta", "40"]) == 0
        assert "RRMSE" in capsys.readouterr().out

    def test_curve_prints_no_lp_counter(self, capsys):
        import json

        assert cli_main(["curve", "lulesh", "--nranks", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["L_us", "critical_latencies_us", "lambda_L", "runtime_us"]
        assert cli_main(["curve", "lulesh", "--nranks", "2"]) == 0
        out = capsys.readouterr().out
        assert "critical latencies" in out and "LP" not in out

    def test_trace_and_goal_outputs(self, tmp_path, capsys):
        trace_file = tmp_path / "app.trace"
        goal_file = tmp_path / "app.goal"
        assert cli_main(["trace", "lulesh", "--nranks", "2", "--output", str(trace_file)]) == 0
        assert cli_main(["goal", "lulesh", "--nranks", "2", "--output", str(goal_file)]) == 0
        assert trace_file.exists() and goal_file.exists()

    def test_trace_one_rank_exits_with_one_line(self, tmp_path):
        # a trace records collectives on communicators of 2 or more ranks
        output = tmp_path / "one.trace"
        with pytest.raises(SystemExit) as exit_:
            cli_main(["trace", "lulesh", "--nranks", "1", "--output", str(output)])
        assert exit_.value.code == (
            "cannot trace lulesh on 1 rank(s): "
            "MPI_Allreduce: collective requires comm_size >= 2"
        )
        assert not output.exists()

    def test_ring_allreduce_option(self, capsys):
        assert cli_main(["analyze", "icon", "--nranks", "4", "--allreduce", "ring",
                         "--json"]) == 0

    def test_place_json(self, capsys):
        import json

        assert cli_main(["place", "lulesh", "--nranks", "4", "--nodes", "2",
                         "--initial", "round_robin", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["mapping"]) == 4
        assert not [key for key in payload if "lp" in key.lower()]
        assert payload["predicted_runtime_us"] <= payload["initial_runtime_us"] * (1 + 1e-9)

    def test_place_human(self, capsys):
        assert cli_main(["place", "icon", "--nranks", "4", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "refined mapping" in out and "LP" not in out

    @pytest.mark.parametrize("option,value", [
        ("--inter-latency", "nan"), ("--inter-latency", "inf"), ("--intra-latency", "-5"),
    ])
    def test_place_rejects_bad_latency(self, option, value):
        with pytest.raises(SystemExit) as exit_:
            cli_main(["place", "lulesh", "--nranks", "4", "--nodes", "2", option, value])
        name = option[2:].replace("-", "_node_")
        assert exit_.value.code.startswith(f"{name} must be finite and non-negative")

    def test_place_has_no_backend_option(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["place", "lulesh", "--nranks", "2", "--backend", "highs"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend highs" in capsys.readouterr().err
