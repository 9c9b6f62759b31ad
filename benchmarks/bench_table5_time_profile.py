"""Paper Table V: factor & eigendecomposition stage time profile.

Also exercises the overlap accounting: under the graph scheduler the
*exposed* factor/eig communication must be strictly below the synchronous
cost at every world size >= 4 (the SPD-KFAC savings the task graph
recovers), without changing any synchronous-path numbers.
"""

from repro.experiments.profile_exp import run_table5
from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
from repro.perfmodel.iteration import IterationModel
from repro.perfmodel.specs import resnet_spec

from conftest import run_and_print


def test_table5_stage_profile(benchmark):
    result = run_and_print(benchmark, run_table5)
    # shape criteria from the paper's measurements:
    for depth in (50, 101, 152):
        im = IterationModel(resnet_spec(depth), V100_LIKE, FRONTERA_LIKE)
        # factor compute constant in GPU count
        assert im.factor_compute_time() == im.factor_compute_time()
        # eig compute decreases with GPU count
        assert im.eig_stage_time(16) >= im.eig_stage_time(64)
        # comm roughly flat across scales (within 10%)
        c16, c64 = im.factor_comm_time(16), im.factor_comm_time(64)
        assert abs(c64 - c16) / c16 < 0.10
        # the graph scheduler strictly lowers exposed comm at world_size >= 4
        for p in (4, 16, 32, 64):
            sync = im.stage_profile(p)
            pipe = im.stage_profile(p, scheduler="graph")
            assert pipe.factor_tcomm_exposed < sync.factor_tcomm
            assert pipe.eig_tcomm_exposed < sync.eig_tcomm
            # the overlap never rewrites the synchronous costs themselves
            assert pipe.factor_tcomm == sync.factor_tcomm
            assert pipe.eig_tcomm == sync.eig_tcomm
            assert pipe.hidden_comm > 0.0
            # the symmetric fast path ships strictly fewer factor bytes
            # (and therefore strictly less factor comm time) than full
            packed = im.stage_profile(p, scheduler="graph", symmetric=True)
            assert packed.factor_comm_payload_bytes < sync.factor_comm_payload_bytes
            assert packed.factor_tcomm < sync.factor_tcomm
    # the experiment artifact carries the exposed/hidden accounting
    assert all(h > 0.0 for h in result.data["hidden"].values())
    # ... and the packed-vs-full factor payloads (packed strictly lower)
    for depth in (50, 101, 152):
        assert (
            result.data["factor_payload_packed_bytes"][depth]
            < result.data["factor_payload_bytes"][depth]
        )
