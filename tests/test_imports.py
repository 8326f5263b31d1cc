"""Import-cost guard for the two-phase repair path.

Algorithm 2 runs in short-lived processes (one ``repro repair`` per
archive slice, each ``repro serve`` worker), where start-up is mostly
import time.  So replaying a stored plan loads only numpy and the
stdlib: ``load_plan`` (both modes), ``repair_dataset``,
``RepairService``, ``repro repair`` and ``repro --help`` import neither
scipy nor the design stack (``repro.core.design``).  A CSR plan keeps
its own ``(data, indices, indptr)`` triplet and builds its scipy view
only when ``.matrix`` is read, every module imports ``scipy.sparse``
inside the functions that use it, ``repro`` and ``repro.core`` resolve
their exports on first use, and ``repro.core`` never imports
``repro.serve`` (and with it ``http.server`` and ``urllib``).  The
design path may import scipy, but not the LP oracle's
``scipy.optimize`` or the Sinkhorn solvers' ``scipy.special``.

Each case runs in a fresh interpreter and reports what it added to
``sys.modules`` beyond a floor import: ``import numpy`` for the replay
case, ``import numpy, scipy.sparse`` for the others, which keeps them
valid on scipy versions whose ``scipy.sparse`` imports more.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules only the LP oracle, the Sinkhorn solvers or the serving tier
#: need; none may load on the offline two-phase path or for ``--help``,
#: and a serving worker loads none of the scipy ones.
SCIPY_FORBIDDEN = ("scipy.optimize", "scipy.special", "scipy.linalg")
FORBIDDEN = SCIPY_FORBIDDEN + ("http.server", "urllib.request", "ssl",
                               "repro.serve")


def _run(body: str, tmp_path, floor: str = "numpy, scipy.sparse") -> dict:
    """Run ``body`` after ``import {floor}`` in a fresh interpreter.

    ``body`` may fill the dict ``out``; the result is ``out`` plus
    ``"added"``, the modules imported beyond the floor.
    """
    script = textwrap.dedent(f"""
        import json, sys
        import {floor}
        floor = set(sys.modules)
        out = {{}}
    """) + textwrap.dedent(body) + textwrap.dedent("""
        out["added"] = sorted(set(sys.modules) - floor)
        print(json.dumps(out))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded(report: dict, names) -> list:
    return [name for name in names if name in report["added"]]


def test_two_phase_path_stays_light(tmp_path):
    report = _run("""
        import numpy as np
        from repro import (DistributionalRepairer, design_repair,
                           load_plan, repair_dataset, save_plan,
                           simulate_paper_data)
        from repro.data import ArchiveStream

        split = simulate_paper_data(n_research=300, n_archive=600, rng=0)
        save_plan(design_repair(split.research, 30), "plan.npz")
        plan = load_plan("plan.npz", mmap=True)
        repaired = repair_dataset(split.archive, plan,
                                  rng=np.random.default_rng(1))
        repairer = DistributionalRepairer(30, rng=2).fit(split.research)
        streamed = list(repairer.transform_stream(
            ArchiveStream(split.archive, batch_size=256)))
        out["rows"] = [len(repaired), sum(map(len, streamed))]
    """, tmp_path)
    assert report["rows"] == [600, 600]
    assert _loaded(report, FORBIDDEN) == []


def test_cli_help_stays_light(tmp_path):
    report = _run("""
        import contextlib, io
        from repro.cli import main

        with contextlib.redirect_stdout(io.StringIO()) as text:
            try:
                main(["--help"])
            except SystemExit as exc:
                out["code"] = exc.code
        out["usage"] = text.getvalue().startswith("usage:")
    """, tmp_path)
    assert report["code"] == 0 and report["usage"]
    assert _loaded(report, FORBIDDEN) == []


def test_serve_worker_loads_no_solver_subpackages(tmp_path):
    report = _run("""
        import numpy as np
        from repro import design_repair, save_plan, simulate_paper_data
        from repro.serve import RepairRequest, RepairService

        split = simulate_paper_data(n_research=300, n_archive=50, rng=0)
        save_plan(design_repair(split.research, 30), "plan.npz")
        service = RepairService.from_path("plan.npz", mmap=True)
        request = RepairRequest(split.archive, np.random.default_rng(3))
        out["rows"] = len(service.repair_many([request])[0])
    """, tmp_path)
    assert report["rows"] == 50
    assert _loaded(report, SCIPY_FORBIDDEN) == []


def test_solvers_still_import_what_they_use(tmp_path):
    # Positive control: the deferred imports still run, and the values
    # match the ones computed with the imports at module top.
    report = _run("""
        import numpy as np
        from repro.ot import OTProblem, sinkhorn_barycenter, solve

        out["before"] = [name in sys.modules
                         for name in ("scipy.optimize", "scipy.special")]
        problem = OTProblem(source_weights=[0.1, 0.4, 0.2, 0.3],
                            target_weights=[0.25, 0.25, 0.3, 0.1, 0.1],
                            source_support=[0.0, 1.0, 2.5, 4.0],
                            target_support=[0.5, 1.0, 2.0, 3.0, 5.0])
        out["lp"] = solve(problem, method="lp").value
        out["exact"] = solve(problem, method="exact").value
        grid = np.linspace(0.0, 1.0, 6)
        cost = (grid[:, None] - grid[None, :]) ** 2
        out["barycenter"] = sinkhorn_barycenter(
            cost, [[0.4, 0.3, 0.2, 0.1, 0.0, 0.0],
                   [0.0, 0.0, 0.1, 0.2, 0.3, 0.4]],
            epsilon=0.05).tolist()
    """, tmp_path)
    assert report["before"] == [False, False]
    assert _loaded(report, ("scipy.optimize", "scipy.special")) == [
        "scipy.optimize", "scipy.special"]
    assert abs(report["lp"] - 0.7125) < 1e-12
    assert abs(report["lp"] - report["exact"]) < 1e-12
    expected = [0.047993348945712305, 0.17365472556092307,
                0.2783519254933648, 0.2783519254933648,
                0.17365472556092293, 0.047993348945712264]
    assert max(abs(a - b) for a, b in zip(report["barycenter"],
                                          expected)) < 1e-12


def test_replay_imports_no_scipy(tmp_path):
    # The archive is designed in another interpreter, as in deployment.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    design = textwrap.dedent("""
        from repro import design_repair, save_plan, simulate_paper_data
        from repro.cli import write_csv_dataset

        split = simulate_paper_data(n_research=300, n_archive=400, rng=0)
        save_plan(design_repair(split.research, 30), "plan.npz")
        write_csv_dataset(split.archive, "archive.csv")
    """)
    subprocess.run([sys.executable, "-c", design], cwd=tmp_path, env=env,
                   check=True, timeout=300)
    report = _run("""
        import contextlib, io
        import numpy as np
        from repro.cli import main, read_csv_dataset
        from repro.core.repair import repair_dataset
        from repro.core.serialize import load_plan
        from repro.serve.service import RepairRequest, RepairService

        archive = read_csv_dataset("archive.csv")
        rows = []
        for mmap in (True, False):
            plan = load_plan("plan.npz", mmap=mmap)
            rows.append(len(repair_dataset(archive, plan, rng=1)))
        service = RepairService.from_path("plan.npz")
        request = RepairRequest(archive, np.random.default_rng(3))
        rows.append(len(service.repair_many([request])[0]))
        with contextlib.redirect_stdout(io.StringIO()) as text:
            out["repair"] = main(["repair", "plan.npz", "archive.csv",
                                  "repaired.csv", "--seed", "3"])
            try:
                main(["--help"])
            except SystemExit as exc:
                out["help"] = exc.code
        out["rows"] = rows
    """, tmp_path, floor="numpy")
    assert report["rows"] == [400, 400, 400]
    assert (report["repair"], report["help"]) == (0, 0)
    loaded = [name for name in report["added"]
              if name == "scipy" or name.startswith("scipy.")]
    assert loaded == []
    assert "repro.core.design" not in report["added"]


def test_lazy_exports_resolve_to_their_submodules_objects():
    import repro
    import repro.core
    from repro.core import design  # a submodule, not an export

    assert repro.design_repair is repro.core.design_repair
    assert repro.core.design_repair is design.design_repair
    for package in (repro, repro.core):
        assert set(package.__all__) <= set(dir(package))
        assert all(hasattr(package, name) for name in package.__all__)
        assert not hasattr(package, "no_such_export")
