"""The deterministic process-pool sweep primitive."""

import pytest

from repro.errors import ConfigurationError
from repro.perf.parallel import MAX_CHUNK, _chunk_size, batchable, sweep_map


def _square(x):
    return x * x


def _square_batch(items):
    return [x * x for x in items]


@batchable(_square_batch)
def _square_vec(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom at three")
    return x


def _seeded_tuple(item):
    # Every configuration travels inside the item (the contract).
    seed, scale = item
    return (seed, seed * scale)


class TestSweepMap:
    def test_serial_default(self):
        assert sweep_map(_square, range(6)) == [0, 1, 4, 9, 16, 25]

    def test_parallel_matches_serial(self):
        items = list(range(40))
        serial = sweep_map(_square, items)
        assert sweep_map(_square, items, jobs=4) == serial

    def test_order_preserved_with_item_payloads(self):
        items = [(seed, 3) for seed in range(25)]
        expected = [_seeded_tuple(item) for item in items]
        assert sweep_map(_seeded_tuple, items, jobs=3) == expected

    def test_single_item_stays_serial(self):
        # One item never pays pool startup, whatever jobs says.
        assert sweep_map(_square, [7], jobs=8) == [49]

    def test_empty_items(self):
        assert sweep_map(_square, [], jobs=4) == []

    def test_generator_items(self):
        assert sweep_map(_square, (i for i in range(4)),
                         jobs=2) == [0, 1, 4, 9]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom at three"):
            sweep_map(_fail_on_three, range(6), jobs=2)

    def test_worker_exception_propagates_serially(self):
        with pytest.raises(ValueError, match="boom at three"):
            sweep_map(_fail_on_three, range(6))

    def test_explicit_chunk_size(self):
        items = list(range(10))
        assert sweep_map(_square, items, jobs=2,
                         chunk_size=5) == [i * i for i in items]

    def test_jobs_validated(self):
        with pytest.raises(ConfigurationError):
            sweep_map(_square, range(3), jobs=0)

    def test_chunk_size_validated(self):
        with pytest.raises(ConfigurationError):
            sweep_map(_square, range(3), jobs=2, chunk_size=0)


class TestBatchMode:
    """``batch=True`` routes through the :func:`batchable` twin."""

    def test_batchable_attaches_twin_and_returns_fn(self):
        assert _square_vec(3) == 9
        assert _square_vec._batch_impl is _square_batch

    def test_batch_matches_serial(self):
        items = list(range(20))
        assert sweep_map(_square_vec, items, batch=True) == \
            sweep_map(_square_vec, items)

    def test_batch_composes_with_jobs(self):
        items = list(range(30))
        expected = [x * x for x in items]
        assert sweep_map(_square_vec, items, jobs=3,
                         batch=True) == expected

    def test_batch_without_twin_falls_back_per_item(self):
        # _square has no _batch_impl; batch=True must still work.
        assert sweep_map(_square, range(6), batch=True) == \
            [0, 1, 4, 9, 16, 25]

    def test_batch_chunk_size_override(self):
        items = list(range(10))
        assert sweep_map(_square_vec, items, jobs=2, chunk_size=3,
                         batch=True) == [x * x for x in items]

    def test_batch_empty_items(self):
        assert sweep_map(_square_vec, [], jobs=4, batch=True) == []

    def test_figure6_batch_byte_identical(self):
        from repro.experiments import figure6
        from repro.units import KB, MB

        kwargs = dict(with_mems=True,
                      bit_rates={"DivX": 100 * KB, "DVD": 1 * MB},
                      max_streams=500.0)
        scalar = figure6.run(batch=False, **kwargs)
        batched = figure6.run(batch=True, **kwargs)
        assert batched.to_csv() == scalar.to_csv()
        assert batched.notes == scalar.notes

    def test_figure9_batch_byte_identical(self):
        from repro.experiments import figure9

        scalar = figure9.run(distributions=("1:99", "50:50"))
        batched = figure9.run(distributions=("1:99", "50:50"), batch=True)
        assert batched.table.rows == scalar.table.rows
        assert batched.notes == scalar.notes


class TestSweepDeterminism:
    """Parallel runs must be byte-identical to serial ones."""

    def test_figure6_csv_byte_identical_across_jobs(self):
        from repro.experiments import figure6
        from repro.units import KB, MB

        kwargs = dict(with_mems=True,
                      bit_rates={"DivX": 100 * KB, "DVD": 1 * MB},
                      max_streams=500.0)
        serial = figure6.run(jobs=1, **kwargs)
        fanned = figure6.run(jobs=2, **kwargs)
        assert fanned.to_csv() == serial.to_csv()
        assert fanned.notes == serial.notes

    def test_registry_batch_matches_serial(self):
        from repro.experiments.registry import run_selected

        serial = run_selected(["table1", "table3"], jobs=1)
        fanned = run_selected(["table1", "table3"], jobs=2)
        assert list(fanned) == list(serial)
        for experiment_id, result in serial.items():
            assert fanned[experiment_id].to_csv() == result.to_csv()
            assert fanned[experiment_id].notes == result.notes

    def test_scenario_batch_matches_serial(self):
        from repro.service.scenarios import run_scenario_batch

        names = ["device-failure", "degraded-bandwidth"]
        serial = run_scenario_batch(names, seed=3, horizon=600.0, jobs=1)
        fanned = run_scenario_batch(names, seed=3, horizon=600.0, jobs=2)
        assert list(fanned) == names
        for name in names:
            assert fanned[name].to_json() == serial[name].to_json()

    def test_scenario_batch_validates_names(self):
        from repro.service.scenarios import run_scenario_batch

        with pytest.raises(ConfigurationError):
            run_scenario_batch(["no-such-scenario"])


class TestChunkSize:
    def test_bounds(self):
        for n_items in (1, 2, 7, 40, 1000):
            for jobs in (2, 4, 16):
                chunk = _chunk_size(n_items, jobs)
                assert 1 <= chunk <= MAX_CHUNK

    def test_small_batches_get_unit_chunks(self):
        assert _chunk_size(4, 4) == 1

    def test_large_batches_amortise(self):
        assert _chunk_size(1000, 4) == MAX_CHUNK
