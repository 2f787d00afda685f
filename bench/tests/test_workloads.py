"""The workloads are frozen: their explicit params are pinned here."""

import dataclasses

import pytest

from bench.workloads import WORKLOADS, build_tasks, by_name, workload_digest

#: sha256 over each workload's experiment, pool size and the repr of its
#: explicit params.  A change
#: here is a change of the benchmark: every baseline is measured again.
PINNED = {
    "fanin_tree":
        "584a72ea9d0e7e1f7a088ffad0fc294563e55690ea184ee723a4a0e82ec24be9",
    "fattree_forward":
        "cf67336ca5aff8e22db9fa01ac226ca1d7c7133b5a01fcd86f4e1012281a291d",
    "openloop_sessions":
        "39226c471524b9edaddd75b60ee79eb80966efac1cddaf434f4eff4ddfbeed6f",
    "sweep_points":
        "f319729ab9d022f869ef527e49f1522184347cede8d426b55d9246b921a7b93b",
}


def test_names_are_the_four_later_issues_refer_to():
    assert [w.name for w in WORKLOADS] == list(PINNED)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_workload_digest_is_pinned(workload):
    assert workload_digest(workload, build_tasks(workload)) == PINNED[workload.name]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_every_params_field_is_explicit(workload):
    for experiment, params in build_tasks(workload):
        fields = {f.name for f in dataclasses.fields(params)}
        assert fields == set(workload.params) | {"protocol"}
        assert experiment.id == workload.experiment


def test_a_new_params_field_is_a_benchmark_change():
    workload = by_name("sweep_points")
    unpinned = dict(workload.params)
    del unpinned["buffer_pkts"]
    with pytest.raises(ValueError, match="buffer_pkts"):
        build_tasks(dataclasses.replace(workload, params=unpinned))


def test_the_pool_size_is_part_of_the_digest():
    workload = by_name("sweep_points")
    resized = dataclasses.replace(workload, pool_jobs=2)
    assert (workload_digest(resized, build_tasks(resized))
            != PINNED["sweep_points"])
