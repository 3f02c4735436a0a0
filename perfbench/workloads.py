"""The four benchmark workloads: seeded inputs, warm-up, one timed pass, checks.

Each workload is one closed-loop caller: ``run_instance`` performs one pass
(an "instance") of the workload's ``ops`` in order and keeps one outcome
per operation; ``check`` compares each outcome with an independent oracle
outside the timed region.  README CLI configurations run in-process through
``polygreen.cli.main``; inputs the CLI cannot express (the verify base
point, the semigroup radii) go through the public library functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from polygreen import cli, euclid, giraud, mass, parametrix, torus
from polygreen.params import ProblemParams

import hostspeed

# CLI tolerances the gates reuse, so a gate is never looser than the CLI.
PIPELINE_TOL = 1e-2
VERIFY_TOL = 5e-4
SEMIGROUP_TOL = 1e-4      # acceptance criterion 2
# Bessel-kernel gate.  Deliberately above the known ~3e-11 error of the
# integer-order series just below its x = 6 cut, so that defect is reported
# in oracle_error as measured instead of failing every run.
KERNEL_TOL = 1e-10


def derive_seed(seed: int, label: str) -> int:
    """Independent sub-seed per input stream, stable across Python runs."""
    tag = sum((i + 1) * ord(c) for i, c in enumerate(label))
    return int(np.random.default_rng([seed, tag]).integers(2**31 - 1))


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """polygreen.cli.main in-process with stdout/stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _csv_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln]
    head = lines[0].split(",")
    return [dict(zip(head, ln.split(","))) for ln in lines[1:]]


class Workload:
    name = ""
    # host-speed probe matching the workload's kind of work (see hostspeed)
    probe, probe_ref_s = staticmethod(hostspeed.mixed_probe), hostspeed.MIXED_REF_S

    def make_inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def warmup(self, inputs: dict) -> None:
        raise NotImplementedError

    def ops(self, inputs: dict) -> list[tuple[str, object, object]]:
        """(operation name, check argument, zero-argument callable) in order."""
        raise NotImplementedError

    def check(self, arg, result) -> tuple[bool, float | None, str]:
        """(passed, oracle error or None, detail) for one operation's result."""
        raise NotImplementedError

    def extra_checks(self, inputs: dict) -> list[tuple[str, bool, float | None, str]]:
        """Gate checks on inputs rather than on an operation's result."""
        return []

    def describe(self, inputs: dict) -> dict:
        return {k: v for k, v in inputs.items() if isinstance(v, (int, float, str, list))}

    def traced_callables(self, inputs: dict) -> list[tuple[object, str, str]]:
        """(object, attribute, span name) of callables the benchmark built itself."""
        return []


class Pipeline(Workload):
    name = "pipeline"
    probe, probe_ref_s = staticmethod(hostspeed.array_probe), hostspeed.ARRAY_REF_S

    def make_inputs(self, seed):
        return {"compare_seed": derive_seed(seed, "compare")}

    def warmup(self, inputs):
        p = ProblemParams(3, 1, 2000.0)
        geom = torus.TorusGeometry(3, 1.0)
        torus.green_lattice_sum(p, geom, np.zeros(3), np.array([0.1, 0.0, 0.0]), tol=1e-14)
        parametrix.build_H(p, geom)
        np.fft.irfftn(np.ones((8, 8, 5), dtype=complex), s=(8, 8, 8))
        np.polynomial.legendre.leggauss(240)

    def ops(self, inputs):
        argv = ("parametrix run --n 3 --k 1 --alpha 2000 --grid 128 --tau0 auto "
                "--alias-limit 0.05 --pairs 200").split()
        argv += ["--seed", str(inputs["compare_seed"])]
        return [("parametrix_run", None, lambda: run_cli(argv))]

    def check(self, arg, result):
        rc, out, err = result
        if rc != 0:
            return False, None, f"exit {rc}: {err.strip()}"
        report = json.loads(out)["comparison"]
        rel = float(report["max_rel_error"])
        return rel <= PIPELINE_TOL, rel, f"max_rel_error {rel:.3e} over {report['pairs']} pairs"


class Verify(Workload):
    name = "verify"
    probe, probe_ref_s = staticmethod(hostspeed.array_probe), hostspeed.ARRAY_REF_S

    MODES = {
        "constant": {(0, 0, 0): 1.0},
        "cosine": {(1, 0, 0): 0.5, (-1, 0, 0): 0.5},
    }

    def make_inputs(self, seed):
        rng = np.random.default_rng(derive_seed(seed, "base_point"))
        return {"base_point": [float(v) for v in rng.uniform(0.0, 1.0, 3)]}

    def warmup(self, inputs):
        p = ProblemParams(3, 1, 2000.0)
        geom = torus.TorusGeometry(3, 1.0)
        torus.representation_check(p, geom, self.MODES["cosine"], np.zeros(3), grid=16)

    def ops(self, inputs):
        p = ProblemParams(3, 1, 2000.0)
        geom = torus.TorusGeometry(3, 1.0)
        x = np.array(inputs["base_point"])
        return [
            (mode, None, lambda phi=phi: torus.representation_check(p, geom, phi, x, grid=128))
            for mode, phi in self.MODES.items()
        ]

    def check(self, arg, result):
        defect, estimate = result
        return defect <= VERIFY_TOL, float(defect), f"defect {defect:.3e} (quadrature est {estimate:.1e})"


class Lattice(Workload):
    name = "lattice"

    ALPHA = 500.0
    SEAM_ARGS = (5.999, 6.001, 15.999, 16.001)   # sqrt(alpha) r around the region cuts
    SAMPLE = 120

    def make_inputs(self, seed):
        return {"scan3_seed": derive_seed(seed, "scan3"), "scan4_seed": derive_seed(seed, "scan4")}

    def warmup(self, inputs):
        for n in (3, 4):
            p = ProblemParams(n, 1, self.ALPHA)
            geom = torus.TorusGeometry(n, 1.0)
            x, y = np.zeros(n), np.full(n, 0.3)
            torus.green_lattice_sum(p, geom, x, y)
        mass.torus_mass(ProblemParams(3, 1, 100.0), torus.TorusGeometry(3, 1.0))

    def ops(self, inputs):
        scan3 = "torus scan --n 3 --k 1 --alpha 500 --pairs 1000".split()
        scan3 += ["--seed", str(inputs["scan3_seed"])]
        scan4 = "torus scan --n 4 --k 1 --alpha 500 --pairs 1000".split()
        scan4 += ["--seed", str(inputs["scan4_seed"])]
        sweep = "mass sweep --n 3 --k 1 --L 1 --alphas 100,1000,10000 --format csv".split()
        return [
            ("scan_n3", "scan", lambda: run_cli(scan3)),
            ("scan_n4", "scan", lambda: run_cli(scan4)),
            ("mass_sweep", "mass", lambda: run_cli(sweep)),
        ]

    def check(self, arg, result):
        rc, out, err = result
        if rc != 0:
            return False, None, f"exit {rc}: {err.strip()}"
        rows = _csv_rows(out)
        if arg == "mass":
            scaled = [float(r["ratio"]) for r in rows]
            ok = all(s > 0 for s in scaled)
            return ok, None, f"-mu/sqrt(alpha) in [{min(scaled):.6g}, {max(scaled):.6g}]"
        return True, None, f"min G {float(rows[0]['value']):.3e}, max asymmetry {float(rows[0]['ratio']):.1e}"

    def kernel_sample(self, inputs) -> np.ndarray:
        """Radii the n=4 scan hands to the kernel: its seeded pairs' images."""
        rng = np.random.default_rng(inputs["scan4_seed"])
        pts = rng.uniform(0.0, 1.0, size=(1000, 2, 4))   # as symmetry_positivity_scan draws them
        v = np.mod(pts[:, 1] - pts[:, 0] + 0.5, 1.0) - 0.5
        box = torus._lattice_box(4, 1).astype(float)
        radii = np.linalg.norm(v[:, None, :] + box[None, :, :], axis=2).ravel()
        pick = np.random.default_rng(derive_seed(inputs["scan4_seed"], "kernel")).choice(
            radii, size=self.SAMPLE, replace=False
        )
        seams = np.array(self.SEAM_ARGS) / math.sqrt(self.ALPHA)
        return np.concatenate([pick, seams])

    def extra_checks(self, inputs):
        import mpmath

        p = ProblemParams(4, 1, self.ALPHA)
        r = self.kernel_sample(inputs)
        ours = euclid.kernel_alpha_array(p, r)
        nu = 0.5 * p.twice_nu
        with mpmath.workdps(30):
            d = mpmath.mpf(euclid.closed_form_constant(p.n, p.k)) * mpmath.mpf(p.alpha) ** nu
            sa = mpmath.sqrt(mpmath.mpf(p.alpha))
            oracle = np.array([
                float(d * (sa * mpmath.mpf(float(ri))) ** (-nu) * mpmath.besselk(nu, sa * mpmath.mpf(float(ri))))
                for ri in r
            ])
        rel = np.abs(ours - oracle) / np.abs(oracle)
        worst = int(np.argmax(rel))
        err = float(rel[worst])
        detail = (f"n=4 kernel vs mpmath.besselk on {len(r)} radii: max rel {err:.2e} "
                  f"at sqrt(alpha) r = {math.sqrt(self.ALPHA) * r[worst]:.4f}")
        return [("kernel_vs_mpmath", err <= KERNEL_TOL, err, detail)]


class Convolve(Workload):
    name = "convolve"

    DIMS = (5, 6, 7)
    R_RANGE = (0.25, 2.0)
    STRATA = 4     # one radius per quarter of R_RANGE keeps the cost steady across seeds

    def make_inputs(self, seed):
        rng = np.random.default_rng(derive_seed(seed, "radii"))
        edges = np.linspace(*self.R_RANGE, self.STRATA + 1)
        radii = {n: [float(v) for v in rng.uniform(edges[:-1], edges[1:])] for n in self.DIMS}
        kernels = {n: euclid.green_radial_kernel(ProblemParams(n, 1, 1.0)) for n in self.DIMS}
        return {"radii": radii, "kernels": kernels}

    def warmup(self, inputs):
        for kern in inputs["kernels"].values():
            kern(np.array([0.5, 8.0, 20.0]))
        kern = inputs["kernels"][5]
        giraud.radial_convolve(kern, kern, 5, 1.0, tol=1e-4)

    def ops(self, inputs):
        out = []
        for n in self.DIMS:
            kern = inputs["kernels"][n]
            for r in inputs["radii"][n]:
                out.append((f"semigroup_n{n}_r{r:.4f}", (n, r),
                            lambda kern=kern, n=n, r=r: giraud.radial_convolve(kern, kern, n, r, tol=1e-8)))
        certify = "giraud certify --n 3 --k 1 --alphas 100,10000 --radii 0.02,0.05,0.2".split()
        out.append(("certify", None, lambda: run_cli(certify)))
        return out

    def check(self, arg, result):
        if arg is None:
            rc, out, err = result
            return rc == 0, None, "certified" if rc == 0 else f"exit {rc}: {err.strip()}"
        n, r = arg
        value, _ = result
        expect = euclid.kernel_closed_form(n, 2, r)
        rel = abs(value - expect) / expect
        return rel <= SEMIGROUP_TOL, rel, f"rel dev from closed-form G2 {rel:.2e}"

    def describe(self, inputs):
        return {"radii": inputs["radii"]}

    def traced_callables(self, inputs):
        return [(kern, "evaluator", "giraud.evaluator") for kern in inputs["kernels"].values()]


WORKLOADS = {w.name: w for w in (Pipeline(), Verify(), Lattice(), Convolve())}


def run_instance(workload: Workload, inputs: dict) -> tuple[float, list[dict]]:
    """One closed-loop pass: operations back to back, each outcome kept.

    Returns the instance's normalised time (the sum over its operations)
    and per-operation records with raw and normalised seconds.
    """
    records = []
    for name, arg, call in workload.ops(inputs):
        with hostspeed.HostSpeed(workload.probe, workload.probe_ref_s) as speed:
            try:
                result, exc = call(), None
            except Exception as e:  # an operation that raises counts as failed
                result, exc = None, f"{type(e).__name__}: {e}"
        raw, norm = speed.seconds()
        records.append({"op": name, "arg": arg, "result": result, "exc": exc,
                        "seconds": norm, "raw_seconds": raw, "wall_seconds": speed.end - speed.start,
                        "speed_samples": len(speed.samples)})
    return sum(r["seconds"] for r in records), records
