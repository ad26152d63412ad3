"""The records of the package, built from ``records._Record``: their
signatures, construction errors, immutability, equality, repr and hash."""
import copy
import inspect

import numpy as np
import pytest

from roughpaths.cli import Key, ScenarioConfig
from roughpaths.lipschitz import LipReport, RemainderProbe
from roughpaths.oracle import OracleResult
from roughpaths.rde_solver import ContinuityProbe, LocalSolve, PatchReport, SolverConfig, SolveReport
from roughpaths.records import _Record
from roughpaths.rough_integral import Partition, RateProbe

# Each record's signature, as the dataclass it replaced had it; PatchReport's
# residuals had an empty-list factory as default and now has none.
SIGNATURES = {
    SolverConfig: "(alpha: 'float', beta: 'float', max_picard_iters: 'int' = 60, "
                  "contraction_tol: 'float' = 1e-10, tau_init: 'float' = 0.25, "
                  "tau_shrink: 'float' = 0.5, max_patches: 'int' = 64, "
                  "explosion_bound: 'float' = 100000000.0) -> None",
    PatchReport: "(t_start: 'float', t_end: 'float', tau: 'float', iterations: 'int', "
                 "final_residual: 'float', residuals: 'list') -> None",
    SolveReport: "(patches: 'list', n_patches: 'int' = 0, solution_seminorm: 'float' = 0.0, "
                 "solution_norm: 'float' = 0.0, global_residual: 'float' = 0.0, "
                 "junction_mismatch: 'float' = 0.0, ball_exits: 'int' = 0, "
                 "wall_time_s: 'float' = 0.0, success: 'bool' = False) -> None",
    LocalSolve: "(path: 'ControlledPath', start: 'ControlledPath', residuals: 'list', "
                "outcome: 'str', _scan: 'Callable | None' = None) -> None",
    ContinuityProbe: "(d_out: 'float', d_in: 'float', ratio: 'float') -> None",
    LipReport: "(level_norms: 'list', remainder_ratios: 'list', declared: 'float | None', "
               "violated: 'bool') -> None",
    RemainderProbe: "(level: 'int', max_remainder: 'float', max_ratio: 'float') -> None",
    Partition: "(indices: 'tuple') -> None",
    RateProbe: "(depths: 'list', meshes: 'list', values: 'list', increments: 'list', "
               "exponent: 'float | None') -> None",
    Key: "(text: 'str', test: 'Callable[[object], bool]', default: 'object' = None, "
         "rows: 'dict | None' = None, item: 'Key | None' = None, kinds: 'tuple' = ()) -> None",
    ScenarioConfig: "(schema_version: 'int', d: 'int', N: 'int', alpha: 'float', beta: 'float', "
                    "seed: 'int', path_csv: 'str | None', field_spec: 'dict | None', "
                    "y0: 'list | None', horizon: 'float | None', solver: 'dict', "
                    "integrate: 'dict', verify: 'dict', output_dir: 'str', "
                    "base_dir: 'Path') -> None",
    OracleResult: "(value: 'np.ndarray', method: 'str', resolution: 'int') -> None",
}
# One instance of each record.
SAMPLES = {
    SolverConfig: SolverConfig(0.29, 1 / 3),
    PatchReport: PatchReport(0.0, 0.5, 0.5, 2, 1e-12, [0.1, 1e-12]),
    SolveReport: SolveReport([]),
    LocalSolve: LocalSolve("path", "start", [0.1], "converged", len),
    ContinuityProbe: ContinuityProbe(1.0, 2.0, 0.5),
    LipReport: LipReport([1.0], [0.5], None, False),
    RemainderProbe: RemainderProbe(1, 0.5, 0.25),
    Partition: Partition((0, 2, 4)),
    RateProbe: RateProbe([1, 2], [0.5, 0.25], [1.0, 1.1], [0.1], 1.0),
    Key: Key("a string", str.isalpha),
    ScenarioConfig: ScenarioConfig(1, 1, 3, 0.29, 1 / 3, 0, None, None, None, None, {}, {}, {},
                                   "out", "."),
    OracleResult: OracleResult(np.zeros(2), "rk4", 4),
}
FROZEN = [SolverConfig, ContinuityProbe, LipReport, RemainderProbe, Partition, RateProbe, Key,
          OracleResult]
MUTABLE = [PatchReport, SolveReport, LocalSolve, ScenarioConfig]


@pytest.mark.parametrize("record", SIGNATURES, ids=lambda cls: cls.__name__)
def test_record_signature(record):
    assert str(inspect.signature(record)) == SIGNATURES[record]
    assert not hasattr(record, "__dataclass_fields__")


def test_every_record_listed_once():
    assert set(SIGNATURES) == set(SAMPLES) == set(FROZEN) | set(MUTABLE) == set(_Record.__subclasses__())
    assert not set(FROZEN) & set(MUTABLE)


@pytest.mark.parametrize("record", SAMPLES, ids=lambda cls: cls.__name__)
def test_record_fields_by_position_and_keyword(record):
    rec = SAMPLES[record]
    fields = inspect.signature(record).parameters
    assert record(**{name: getattr(rec, name) for name in fields}) == rec
    assert record(*(getattr(rec, name) for name in fields)) == rec


@pytest.mark.parametrize("call, message", [
    (lambda: SolverConfig(0.29), r"SolverConfig\(\) missing a required argument: 'beta'"),
    (lambda: SolverConfig(0.29, 0.3, foo=1), r"SolverConfig\(\) got an unexpected keyword argument 'foo'"),
    (lambda: SolverConfig(0.29, alpha=0.3), r"SolverConfig\(\) multiple values for argument 'alpha'"),
    (lambda: ContinuityProbe(1.0, 2.0, 0.5, 1.0), r"ContinuityProbe\(\) too many positional arguments"),
    (lambda: ContinuityProbe(d_out=1.0, d_in=2.0, ratio=0.5, bad=0.5),
     r"ContinuityProbe\(\) got an unexpected keyword argument 'bad'"),
    # An unknown keyword in place of a field: as many arguments as fields.
    (lambda: ContinuityProbe(d_out=1.0, d_in=2.0, bad=0.5),
     r"ContinuityProbe\(\) missing a required argument: 'ratio'"),
    (lambda: PatchReport(0.0, 0.5, 0.5, 2, 1e-12), r"PatchReport\(\) missing a required argument: 'residuals'"),
    (lambda: Key(text="a string"), r"Key\(\) missing a required argument: 'test'"),
    (lambda: Partition(), r"Partition\.__init__\(\) missing 1 required positional argument: 'indices'"),
])
def test_record_construction_errors_name_the_class(call, message):
    with pytest.raises(TypeError, match=message):
        call()


@pytest.mark.parametrize("record", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_records_immutable_and_hashable(record):
    rec = SAMPLES[record]
    name = next(iter(inspect.signature(record).parameters))
    with pytest.raises(AttributeError, match=f"{record.__name__} is immutable"):
        setattr(rec, name, None)
    with pytest.raises(AttributeError, match=f"{record.__name__} is immutable"):
        delattr(rec, name)
    with pytest.raises(AttributeError, match=f"{record.__name__} is immutable"):
        rec.extra = 1
    if record in (LipReport, RateProbe, OracleResult):
        with pytest.raises(TypeError, match="unhashable"):  # a list or an array field
            hash(rec)
    else:
        assert hash(rec) == hash(copy.copy(rec))


@pytest.mark.parametrize("record", MUTABLE, ids=lambda cls: cls.__name__)
def test_mutable_records_unhashable(record):
    rec = SAMPLES[record]
    name = next(iter(inspect.signature(record).parameters))
    setattr(rec, name, getattr(rec, name))
    with pytest.raises(TypeError, match="unhashable"):
        hash(rec)


def test_record_repr_and_equality():
    assert repr(SolverConfig(0.29, 0.3)) == (
        "SolverConfig(alpha=0.29, beta=0.3, max_picard_iters=60, contraction_tol=1e-10, "
        "tau_init=0.25, tau_shrink=0.5, max_patches=64, explosion_bound=100000000.0)")
    assert repr(Partition([0, 1, 2])) == "Partition(indices=(0, 1, 2))"
    assert SolverConfig(0.29, 0.3) == SolverConfig(alpha=0.29, beta=0.3, max_patches=64)
    assert SolverConfig(0.29, 0.3) != SolverConfig(0.29, 0.3, max_patches=63)
    # Another type, even with the same fields, is never equal.
    probe = ContinuityProbe(1.0, 2.0, 0.5)
    assert probe.__eq__((1.0, 2.0, 0.5)) is NotImplemented
    assert probe != RemainderProbe(1.0, 2.0, 0.5)
    # LocalSolve's scan takes no part in repr or ==.
    a = LocalSolve("path", "start", [0.1], "converged", len)
    assert repr(a) == "LocalSolve(path='path', start='start', residuals=[0.1], outcome='converged')"
    assert a == LocalSolve("path", "start", [0.1], "converged") != LocalSolve("path", "start", [0.1], "stalled")


def test_solve_report_json_dict():
    patches = [PatchReport(0.0, 0.5, 0.5, 2, 1e-12, [0.1, 1e-12]),
               PatchReport(t_start=0.5, t_end=1.0, tau=0.5, iterations=1, final_residual=0.0, residuals=[0.0])]
    report = SolveReport(patches, n_patches=2, solution_seminorm=1.5, success=True)
    blob = report.to_json_dict()
    assert blob == {
        "patches": [
            {"t_start": 0.0, "t_end": 0.5, "tau": 0.5, "iterations": 2, "final_residual": 1e-12,
             "residuals": [0.1, 1e-12]},
            {"t_start": 0.5, "t_end": 1.0, "tau": 0.5, "iterations": 1, "final_residual": 0.0,
             "residuals": [0.0]},
        ],
        "n_patches": 2, "solution_seminorm": 1.5, "solution_norm": 0.0, "global_residual": 0.0,
        "junction_mismatch": 0.0, "ball_exits": 0, "wall_time_s": 0.0, "success": True,
    }
    # A copy: filling the payload in leaves the report as it was.
    blob["patches"][0]["residuals"].append(1.0)
    blob["failure"] = "x"
    assert patches[0].residuals == [0.1, 1e-12] and not hasattr(report, "failure")
