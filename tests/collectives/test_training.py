"""Tests for the iterated training-job workload."""

import pytest

from repro.collectives.group import cross_rack_groups
from repro.collectives.ring import RingAllreduce
from repro.collectives.training import TrainingJob
from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.sim.engine import US


def make_network(scheme="ecmp"):
    topo = TopologySpec(kind="leaf_spine", num_tors=4, num_spines=2,
                        nics_per_tor=2, link_bandwidth_bps=25e9)
    return Network(NetworkConfig(topology=topo, scheme=scheme))


def make_job(net, iterations=3, compute_ns=20 * US, nbytes=100_000):
    groups = cross_rack_groups(4, 2)
    return TrainingJob(net, groups, collective_cls=RingAllreduce,
                       bytes_per_iteration=nbytes, iterations=iterations,
                       compute_time_ns=compute_ns)


class TestValidation:
    def test_iterations_positive(self):
        net = make_network()
        with pytest.raises(ValueError):
            make_job(net, iterations=0)

    def test_compute_time_nonnegative(self):
        net = make_network()
        with pytest.raises(ValueError):
            make_job(net, compute_ns=-1)


class TestExecution:
    def test_runs_all_iterations(self):
        net = make_network()
        job = make_job(net, iterations=3)
        job.start()
        net.run(until_ns=60_000_000_000)
        assert job.done
        assert len(job.iteration_times_ns) == 3
        assert all(t > 0 for t in job.iteration_times_ns)

    def test_compute_gaps_separate_iterations(self):
        """Fabric goes idle between iterations: total time >= comm +
        compute phases."""
        net = make_network()
        compute = 200 * US
        job = make_job(net, iterations=2, compute_ns=compute)
        job.start()
        net.run(until_ns=60_000_000_000)
        total_comm = sum(job.iteration_times_ns)
        assert net.now_ns >= total_comm + 2 * compute

    def test_mean_and_max(self):
        net = make_network()
        job = make_job(net, iterations=4)
        job.start()
        net.run(until_ns=60_000_000_000)
        assert job.max_iteration_ns >= job.mean_iteration_ns > 0

    def test_synchronized_start_all_groups(self):
        """Both groups launch in the same event (bursty pattern)."""
        net = make_network()
        job = make_job(net, iterations=1, compute_ns=0)
        job.start()
        net.run(until_ns=0)  # the _begin_iteration event
        starts = {c.start_ns for c in job._current}
        assert len(starts) == 1

    def test_themis_improves_iteration_time(self):
        def run(scheme):
            net = make_network(scheme=scheme)
            job = make_job(net, iterations=3, nbytes=400_000)
            job.start()
            net.run(until_ns=120_000_000_000)
            assert job.done
            return job.mean_iteration_ns

        assert run("themis") < run("rps")
