import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odcast import evaluation
from odcast.errors import LengthMismatch
from odcast.events import NodeCatalog, TransactionEvent, csv_field
from odcast.evaluation import (WindowPrediction, compute_metrics, evaluate,
                               export_representations, final_relations, ha_baseline,
                               predict_walk, write_predictions_csv)
from odcast.model import HyperParams, init_params
from odcast.training import Splits

DAY = 86400.0


class TestComputeMetrics:
    def test_perfect_predictions(self):
        truths = [np.array([[1.0, 2.0], [0.0, 3.0]])]
        report = compute_metrics(truths, truths)
        assert report.mae == 0.0 and report.rmse == 0.0
        assert report.pcc == pytest.approx(1.0)

    def test_hand_case(self):
        report = compute_metrics([np.array([[1.0, 2.0]])], [np.array([[2.0, 4.0]])])
        assert abs(report.mae - 1.5) <= 1e-12
        assert abs(report.rmse - math.sqrt(2.5)) <= 1e-12
        assert abs(report.pcc - 1.0) <= 1e-12
        assert report.windows == 1 and report.cells == 2

    def test_matches_flat_loop_oracle(self):
        rng = np.random.default_rng(0)
        preds = [rng.normal(size=(4, 4)) for _ in range(5)]
        truths = [rng.poisson(1.0, size=(4, 4)).astype(float) for _ in range(5)]
        report = compute_metrics(preds, truths)

        errs = []
        ys, yhats = [], []
        for p, t in zip(preds, truths):
            for i in range(4):
                for j in range(4):
                    errs.append(abs(t[i, j] - p[i, j]))
                    ys.append(t[i, j])
                    yhats.append(p[i, j])
        mae = sum(errs) / len(errs)
        rmse = math.sqrt(sum(e * e for e in errs) / len(errs))
        ys, yhats = np.array(ys), np.array(yhats)
        pcc = float(np.corrcoef(ys, yhats)[0, 1])
        assert report.mae == pytest.approx(mae, rel=1e-12)
        assert report.rmse == pytest.approx(rmse, rel=1e-12)
        assert report.pcc == pytest.approx(pcc, rel=1e-12)

    def test_mae_never_exceeds_rmse(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            preds = [rng.normal(size=(3, 3))]
            truths = [rng.poisson(1.0, size=(3, 3)).astype(float)]
            report = compute_metrics(preds, truths)
            assert report.mae <= report.rmse + 1e-12

    def test_pcc_scale_shift_invariance(self):
        rng = np.random.default_rng(2)
        preds = [rng.normal(size=(3, 3))]
        truths = [rng.normal(size=(3, 3))]
        base = compute_metrics(preds, truths).pcc
        scaled = compute_metrics([3.0 * preds[0] + 5.0], [3.0 * truths[0] + 5.0]).pcc
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_degenerate_variance_flagged(self):
        report = compute_metrics([np.ones((2, 2))], [np.ones((2, 2))])
        assert report.pcc is None
        assert report.to_json_dict()["pcc"] is None

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            compute_metrics([np.zeros((2, 2))], [])
        with pytest.raises(LengthMismatch):
            compute_metrics([np.zeros((2, 2))], [np.zeros((3, 3))])

    def test_above_average_scope(self):
        truths = [np.array([[0.0, 1.0], [2.0, 5.0]])]
        preds = [np.array([[1.0, 1.0], [1.0, 1.0]])]
        report = compute_metrics(preds, truths, scope="above_average")
        # Mean demand is 2.0; only the 5.0 cell survives.
        assert report.cells == 1
        assert report.mae == pytest.approx(4.0)

    def test_above_average_empty_scope_flagged(self):
        truths = [np.zeros((2, 2))]
        report = compute_metrics([np.zeros((2, 2))], truths, scope="above_average")
        assert report.cells == 0 and math.isnan(report.mae)
        assert report.pcc is None


class TestHistoricalAverage:
    def test_two_days_mean(self):
        nine = 9 * 3600.0
        m1, m2 = np.full((2, 2), 2.0), np.full((2, 2), 4.0)
        ha = ha_baseline([(nine, m1), (DAY + nine, m2)], tau=1800.0)
        assert np.allclose(ha.predict(2 * DAY + nine), 3.0)
        assert not ha.unseen_slots

    def test_single_day_reproduces(self):
        matrices = [(k * 1800.0, np.full((2, 2), float(k))) for k in range(48)]
        ha = ha_baseline(matrices, tau=1800.0)
        for k in range(48):
            assert np.allclose(ha.predict(DAY + k * 1800.0), float(k))

    def test_unseen_slot_falls_back_to_global_mean(self):
        ha = ha_baseline([(0.0, np.full((2, 2), 2.0)), (1800.0, np.full((2, 2), 4.0))],
                         tau=1800.0)
        out = ha.predict(7200.0)
        assert np.allclose(out, 3.0)
        assert ha.unseen_slots == [4]

    def test_day_length_sets_the_slots(self):
        # A 1000-s day of four 250-s slots: window k falls in slot k % 4.
        truths = [(k * 250.0, np.full((2, 2), float(k))) for k in range(12)]
        ha = ha_baseline(truths, tau=250.0, day_length=1000.0)
        assert ha.slot_of(5750.0) == 3
        for s in range(4):
            assert np.allclose(ha.predict(5000.0 + s * 250.0), float(s + 4))
        assert not ha.unseen_slots

    def test_periodic_stream_matches_slot_mean_loop(self):
        rng = np.random.default_rng(3)
        tau = 21600.0  # 4 slots per day
        truths = [(d * DAY + s * tau, rng.poisson(2.0, size=(3, 3)).astype(float))
                  for d in range(5) for s in range(4)]
        ha = ha_baseline(truths, tau=tau)
        for s in range(4):
            manual = np.mean([m for t, m in truths
                              if int((t % DAY) / tau) == s], axis=0)
            assert np.allclose(ha.predict(9 * DAY + s * tau), manual, rtol=1e-12)

    def test_ha_on_own_training_windows_zero_mae(self):
        rng = np.random.default_rng(4)
        truths = [(k * 1800.0, rng.poisson(1.0, size=(2, 2)).astype(float))
                  for k in range(48)]  # one window per slot
        ha = ha_baseline(truths, tau=1800.0)
        preds = [ha.predict(t) for t, _ in truths]
        report = compute_metrics(preds, [m for _, m in truths])
        assert report.mae == 0.0


def tiny_model(n=3, seed=0, **overrides):
    base = dict(n=n, dim=4, msg_dim=4, heads=2, rel_dim=2, n_clusters=2, tau=60.0,
                decay_rate=math.log(2.0) / 300.0)
    base.update(overrides)
    hyper = HyperParams(**base)
    return hyper, init_params(hyper, seed), NodeCatalog(n=n)


def tiny_stream(n, windows, tau=60.0, seed=0, rate=2):
    rng = np.random.default_rng(seed)
    events = []
    for w in range(windows):
        count = rng.poisson(rate)
        for t in np.sort(rng.uniform(w * tau, (w + 1) * tau, size=count)):
            events.append(TransactionEvent(int(rng.integers(0, n)),
                                           int(rng.integers(0, n)), float(t)))
    return events


class TestEvaluateWalk:
    def test_zero_head_on_empty_demand(self):
        hyper, params, catalog = tiny_model()
        for t in (params.output_mlp.w1, params.output_mlp.w2,
                  params.output_mlp.b1, params.output_mlp.b2):
            t.data = np.zeros_like(t.data)
        splits = Splits(train_windows=4, val_windows=2, test_windows=2)
        result = evaluate(params, [], catalog, hyper, splits, t0=0.0)
        assert result.all_pairs.mae == 0.0
        assert result.above_average.cells == 0 and result.above_average.pcc is None

    def test_deterministic_reports(self):
        hyper, params, catalog = tiny_model()
        events = tiny_stream(3, 10)
        splits = Splits(train_windows=6, val_windows=2, test_windows=2)
        a = evaluate(params, events, catalog, hyper, splits, t0=0.0)
        b = evaluate(params, events, catalog, hyper, splits, t0=0.0)
        assert a.all_pairs.mae == b.all_pairs.mae
        assert a.all_pairs.rmse == b.all_pairs.rmse
        assert len(a.predictions) == 2

    def test_predictions_cover_test_windows(self):
        hyper, params, catalog = tiny_model()
        events = tiny_stream(3, 12, seed=5)
        splits = Splits(train_windows=6, val_windows=3, test_windows=3)
        result = evaluate(params, events, catalog, hyper, splits, t0=0.0)
        starts = [p.window_start for p in result.predictions]
        assert starts == [540.0, 600.0, 660.0]


class TestPredictWalk:
    def test_one_prediction_per_batch_window_mode(self):
        hyper, params, catalog = tiny_model()
        events = tiny_stream(3, 6, seed=1)
        preds = predict_walk(params, events, catalog, hyper, t0=0.0)
        assert len(preds) == 6
        assert all(p.window_end - p.window_start == hyper.tau for p in preds)

    def test_capped_mode_predicts_per_sub_batch(self):
        hyper, params, catalog = tiny_model()
        tau = hyper.tau
        events = [TransactionEvent(0, 1, 2.0 + k * 5.0) for k in range(10)]
        preds = predict_walk(params, events, catalog, hyper, t0=0.0, cap=3)
        from odcast.events import batch_by_cap
        batches = batch_by_cap(events, 0.0, tau, cap=3)
        assert len(preds) == len(batches) == 4
        for p, b in zip(preds, batches):
            assert p.window_start == b.window_end
            assert p.window_end == b.window_end + tau

    def test_capped_actuals_match_brute_force_count(self):
        hyper, params, catalog = tiny_model()
        tau = hyper.tau
        # cap=2 ends sub-batches at 10, 20, 80, 100, ...: targets off the tau grid,
        # with events at exactly 10 + tau, 20 + tau, 80 + tau and 100 + tau.
        times = [5.0, 10.0, 15.0, 20.0, 25.0, 70.0, 80.0, 95.0, 100.0, 119.0,
                 125.0, 140.0, 160.0, 175.0]
        events = [TransactionEvent(k % 3, (2 * k + 1) % 3, t) for k, t in enumerate(times)]
        preds = predict_walk(params, events, catalog, hyper, t0=0.0, cap=2)
        assert any(p.window_start % tau for p in preds)
        assert any(ev.timestamp == p.window_end for p in preds for ev in events)
        for p in preds:
            expected = np.zeros((3, 3))
            for ev in events:
                if p.window_start <= ev.timestamp < p.window_end:
                    expected[ev.origin, ev.destination] += 1.0
            assert np.array_equal(p.actual, expected)

    def test_doubling_the_stream_at_most_doubles_the_walk_work(self, monkeypatch):
        # Deterministic work counts, not timings: model steps, and the event rows handed
        # to build_od_matrix for the actuals, wrapped under the names the walk calls.
        hyper, params, catalog = tiny_model()
        span, cap = 24 * hyper.tau, 3
        events = tiny_stream(3, 24, seed=8, rate=9)
        doubled = events + [TransactionEvent(ev.origin, ev.destination, ev.timestamp + span)
                            for ev in events]
        work = {}

        def counted(name, function, units):
            def wrapper(*args, **kwargs):
                work[name] += units(*args)
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(evaluation, "step", counted("steps", evaluation.step, lambda *_: 1))
        monkeypatch.setattr(evaluation, "build_od_matrix", counted(
            "rows", evaluation.build_od_matrix, lambda rows, *_: len(rows)))

        def walk(stream):
            work.update(steps=0, rows=0)
            predict_walk(params, stream, catalog, hyper, t0=0.0, cap=cap)
            return work["steps"], work["rows"]

        steps, rows = walk(events)
        doubled_steps, doubled_rows = walk(doubled)
        per_window = np.bincount([int(ev.timestamp // hyper.tau) for ev in events]).max()
        assert steps > 24 and rows > 0
        # Give or take one window: its batches, and the events of its target window
        # (which, ending off the tau grid, can overlap two windows).
        assert doubled_steps <= 2 * steps + math.ceil(per_window / cap)
        assert doubled_rows <= 2 * rows + 2 * per_window

    def test_doubling_the_windows_at_most_doubles_the_dump_work(self, monkeypatch, tmp_path):
        # Deterministic work counts, not timings: csv_field calls (one per node, not
        # per window), wrapped under the name the writer calls, and rows written.
        hyper, params, catalog = tiny_model()
        span = 24 * hyper.tau
        events = tiny_stream(3, 24, seed=8, rate=9)
        doubled = events + [TransactionEvent(ev.origin, ev.destination, ev.timestamp + span)
                            for ev in events]
        calls = []

        def counted_field(text):
            calls.append(text)
            return csv_field(text)

        monkeypatch.setattr(evaluation, "csv_field", counted_field)

        def dump(stream):
            calls.clear()
            path = tmp_path / "pred.csv"
            write_predictions_csv(predict_walk(params, stream, catalog, hyper, t0=0.0, cap=3),
                                  catalog, path)
            with open(path, encoding="utf-8") as fh:
                return len(calls), sum(1 for _ in fh) - 1

        fields, rows = dump(events)
        doubled_fields, doubled_rows = dump(doubled)
        assert fields == doubled_fields == catalog.n and rows > 24 * catalog.n ** 2
        # Give or take one window of rows.
        assert doubled_rows <= 2 * rows + catalog.n ** 2

    def test_csv_dump(self, tmp_path):
        hyper, params, catalog = tiny_model()
        events = tiny_stream(3, 3, seed=2)
        preds = predict_walk(params, events, catalog, hyper, t0=0.0)
        path = tmp_path / "pred.csv"
        write_predictions_csv(preds, catalog, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "origin,destination,window_start,window_end,predicted,actual"
        assert len(lines) == 1 + 3 * 9

    @pytest.mark.parametrize("names", [None, ("north", "east", "Zoë")])
    @pytest.mark.parametrize("include_actual", [True, False])
    def test_csv_bytes_match_per_cell_writer(self, tmp_path, names, include_actual):
        hyper, params, _ = tiny_model()
        catalog = NodeCatalog(n=3, names=names)
        preds = predict_walk(params, tiny_stream(3, 4, seed=6), catalog, hyper, t0=0.0, cap=1,
                             with_actual=include_actual)
        preds[0].predicted[0, 1] = -0.0
        preds[1].predicted[2, 2] = 1e-300
        path, ref = tmp_path / "pred.csv", tmp_path / "ref.csv"
        write_predictions_csv(preds, catalog, path)
        with open(ref, "w", encoding="utf-8", newline="") as fh:
            fh.write("origin,destination,window_start,window_end,predicted"
                     + (",actual\n" if include_actual else "\n"))
            for p in preds:
                for i in range(3):
                    for j in range(3):
                        row = (f"{catalog.name_of(i)},{catalog.name_of(j)},"
                               f"{p.window_start!r},{p.window_end!r},"
                               f"{float(p.predicted[i, j]):.6f}")
                        if include_actual:
                            row += f",{float(p.actual[i, j])!r}"
                        fh.write(row + "\n")
        assert len(preds) > 4
        assert path.read_bytes() == ref.read_bytes()

    def test_csv_quotes_names_that_need_it(self, tmp_path):
        hyper, params, _ = tiny_model()
        names = ("a,b", 'q"x', "plain")
        catalog = NodeCatalog(n=3, names=names)
        preds = predict_walk(params, tiny_stream(3, 3, seed=2), catalog, hyper, t0=0.0)
        path = tmp_path / "pred.csv"
        write_predictions_csv(preds, catalog, path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh, strict=True))
        assert all(len(row) == 6 for row in rows)
        pairs = [(o, d) for o in names for d in names]
        assert [(row[0], row[1]) for row in rows[1:]] == pairs * len(preds)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), include_actual=st.booleans())
    def test_csv_reads_back_cell_by_cell(self, tmp_path_factory, data, include_actual):
        special = st.sampled_from([",", '"', "%", "%s", "%%", "", "a\nb", "\r", "a\r\nb",
                                   "Zoë"])
        text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
        names = data.draw(st.lists(special | text, min_size=1, max_size=4, unique=True))
        n = len(names)
        catalog = NodeCatalog(n=n, names=names)
        bounds = st.floats(allow_nan=False, allow_infinity=False)
        predicted = st.sampled_from([0.0, 1e-300]) | st.floats(0.0, 1e12)
        actual = st.integers(0, 40).map(float) | st.floats(0.0, 1e6) | st.just(-0.0)
        preds = [WindowPrediction(data.draw(bounds), data.draw(bounds),
                                  np.array(data.draw(st.lists(predicted, min_size=n * n,
                                                              max_size=n * n))).reshape(n, n),
                                  np.array(data.draw(st.lists(actual, min_size=n * n,
                                                              max_size=n * n))).reshape(n, n))
                 for _ in range(data.draw(st.integers(1, 3)))]
        if not include_actual:  # one window without actuals drops the column
            preds[data.draw(st.integers(0, len(preds) - 1))].actual = None
        path = tmp_path_factory.mktemp("dump") / "pred.csv"
        write_predictions_csv(preds, catalog, path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh, strict=True))
        assert rows[0][-1] == ("actual" if include_actual else "predicted")
        assert len(rows) == 1 + len(preds) * n * n
        cells = ((p, i, j) for p in preds for i in range(n) for j in range(n))
        for row, (p, i, j) in zip(rows[1:], cells):
            assert row[:2] == [names[i], names[j]]
            assert row[2:4] == [repr(p.window_start), repr(p.window_end)]
            assert row[4] == format(float(p.predicted[i, j]), ".6f")
            assert row[5:] == ([repr(float(p.actual[i, j]))] if include_actual else [])


class TestExports:
    def test_idle_node_rows_repeat(self, tmp_path):
        hyper, params, catalog = tiny_model()
        path = tmp_path / "reps.csv"
        trips = [TransactionEvent(0, 2, 10.0), TransactionEvent(2, 0, 130.0)]  # 3 windows
        export_representations(params, trips, catalog, hyper, [1], path, t0=0.0)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "timestamp,node,dim,value"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3 * 1 * hyper.dim
        by_dim = {}
        for t, node, dim, value in rows:
            by_dim.setdefault(dim, set()).add(value)
        # Decay preserves the representation of an idle node exactly.
        assert all(len(values) == 1 for values in by_dim.values())

    def test_row_count_and_values_match_reads(self, tmp_path):
        hyper, params, catalog = tiny_model()
        events = tiny_stream(3, 4, seed=3)
        path = tmp_path / "reps.csv"
        export_representations(params, events, catalog, hyper, [0, 2], path, t0=0.0)
        lines = path.read_text().strip().splitlines()[1:]
        assert len(lines) == 4 * 2 * hyper.dim

        from odcast.events import batch_by_window
        from odcast.model import MemoryBank, step
        bank = MemoryBank.initial(params, hyper, 0.0)
        expected = []
        for batch in batch_by_window(events, 0.0, hyper.tau, until=240.0):
            step(bank, batch, params, hyper, catalog)
            reps = bank.station_reps()
            for node in (0, 2):
                for dim in range(hyper.dim):
                    expected.append(reps[node, dim])
        actual = [float(line.split(",")[3]) for line in lines]
        assert np.allclose(actual, expected, rtol=0, atol=0)

    def test_final_relations_requires_multilevel(self, monkeypatch):
        def never(*args):
            raise AssertionError("the walk stepped")

        monkeypatch.setattr(evaluation, "step", never)  # refused before the walk
        hyper, params, catalog = tiny_model(no_multilevel=True)
        with pytest.raises(ValueError, match="no-ml"):
            final_relations(params, tiny_stream(3, 2), catalog, hyper, t0=0.0)

    def test_final_relations_shape(self):
        hyper, params, catalog = tiny_model()
        relations = final_relations(params, tiny_stream(3, 2), catalog, hyper, t0=0.0)
        assert relations.heads == hyper.heads
        assert relations.acm[0].data.shape == (3, 2)
