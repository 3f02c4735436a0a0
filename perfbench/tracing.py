"""Spans and counters recorded from outside the program, for the traced run.

``Tracer.install`` rebinds each target function at every module attribute
that refers to it (``besselk.bessel_k_scaled_array`` and
``euclid.bessel_k_scaled_array`` alike), so callers that look a name up
through either module reach the wrapper.  ``Tracer.restore`` puts every
original back.  Wrappers exist only between those two calls.

A span is [name, parent index, start, end, points, aux, instance]; spans stay
in memory and are written once at the end.  Self time is a span's duration
minus the time its direct children cover.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

NAME, PARENT, START, END, POINTS, AUX, INSTANCE = range(7)


def _size(x) -> int:
    return int(np.size(x))


def _bessel_regions(besselk):
    """Points per region of one bessel_k_scaled_array call, from its arguments.

    Uses the module's own cut constants; a cut the module no longer defines
    means the region is gone and counts zero.
    """
    series_cut = getattr(besselk, "_SERIES_CUT", -np.inf)
    asym_cut = getattr(besselk, "_ASYM_CUT", np.inf)

    def regions(args, kwargs, result):
        twice_nu = args[0] if args else kwargs["twice_nu"]
        x = np.asarray(args[1] if len(args) > 1 else kwargs["x"], dtype=float)
        if twice_nu % 2 == 1:
            return (0, 0, 0, x.size)
        series = int(np.count_nonzero(x <= series_cut))
        asym = int(np.count_nonzero(x >= asym_cut))
        return (series, x.size - series - asym, asym, 0)

    return regions


def _arg_size(index, key):
    def points(args, kwargs, result):
        return _size(args[index] if len(args) > index else kwargs[key])
    return points


def _result_size(args, kwargs, result):
    return _size(result)


def _rss_bytes(args, kwargs, result) -> int:
    """Resident set size right after the call returns (its arrays still alive)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


def layer_targets():
    """(module, attribute, span name, points fn, aux fn) for each wrapped function."""
    from polygreen import besselk, euclid, giraud, mass, parametrix, torus

    return [
        (besselk, "bessel_k_scaled_array", "besselk.bessel_k_scaled_array",
         _arg_size(1, "x"), _bessel_regions(besselk)),
        (euclid, "kernel_alpha_array", "euclid.kernel_alpha_array", _arg_size(1, "r"), None),
        (euclid, "kernel_closed_form_array", "euclid.kernel_closed_form_array", _arg_size(2, "x"), None),
        (euclid, "evaluate_terms_array", "euclid.evaluate_terms_array", _arg_size(2, "r"), None),
        (torus, "green_lattice_sum", "torus.green_lattice_sum", None, None),
        (torus, "green_lattice_sum_many", "torus.green_lattice_sum_many", _arg_size(2, "displacements"), None),
        (torus, "representation_check", "torus.representation_check", None, None),
        (torus, "symmetry_positivity_scan", "torus.symmetry_positivity_scan", None, None),
        (giraud, "radial_convolve", "giraud.radial_convolve", None, None),
        (giraud, "certify_bound", "giraud.certify_bound", None, None),
        (parametrix, "run_pipeline", "parametrix.run_pipeline", None, _rss_bytes),
        (parametrix, "assemble_and_compare", "parametrix.assemble_and_compare", None, None),
        (parametrix, "error_field", "parametrix.error_field", None, _rss_bytes),
        (parametrix, "_radial_fourier", "parametrix.radial_fourier", _arg_size(4, "xi"), _rss_bytes),
        (mass, "mass_sweep", "mass.mass_sweep", None, None),
        (mass, "torus_mass", "mass.torus_mass", None, None),
        (np.fft, "fftn", "numpy.fft", _result_size, _rss_bytes),
        (np.fft, "ifftn", "numpy.fft", _result_size, _rss_bytes),
        (np.fft, "rfftn", "numpy.fft", _result_size, _rss_bytes),
        (np.fft, "irfftn", "numpy.fft", _result_size, _rss_bytes),
        (np, "unique", "numpy.unique", _arg_size(0, "ar"), None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.instance = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, func, name, points=None, aux=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0, None, self.instance]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if points is not None:
                rec[POINTS] = points(args, kwargs, result)
            if aux is not None:
                rec[AUX] = aux(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _bind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets) -> None:
        """Rebind each target at every polygreen module attribute naming it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "polygreen" or k.startswith("polygreen."))]
        for owner, attr, name, points, aux in targets:
            func = getattr(owner, attr, None)
            if func is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            wrapper = self.wrap(func, name, points, aux)
            self._bind(owner, attr, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is func:
                        self._bind(mod, key, wrapper)

    def wrap_attribute(self, obj, attr, name) -> None:
        """Wrap a callable stored on an object (a RadialKernel's evaluator).

        Points are the size of its first argument."""
        self._bind(obj, attr, self.wrap(getattr(obj, attr), name, _arg_size(0, None)))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "parent", "start", "end", "points", "aux", "instance"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# Derived per-layer metrics
# ---------------------------------------------------------------------------

def tail_percentile(samples) -> tuple[float, float] | None:
    """(level, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    for level in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - level / 100.0) >= 10:
            return level, float(np.percentile(samples, level))
    return None


def layer_metrics(spans: list[list], instances: int, traced_wall: float) -> tuple[dict, dict]:
    """(per-layer metrics, notes) from one traced run; counts and times are
    per traced instance, ``traced_wall`` is the traced instances' wall time."""
    T = max(instances, 1)
    dur = np.array([s[END] - s[START] for s in spans]) if spans else np.zeros(0)
    names = [s[NAME] for s in spans]
    parents = [s[PARENT] for s in spans]
    child = np.zeros(len(spans))
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    self_t = dur - child
    layer = [nm.split(".")[0] for nm in names]

    def idx(name):
        return [i for i, nm in enumerate(names) if nm == name]

    def total(ids):
        return float(sum(dur[i] for i in ids))

    # besselk
    bes = idx("besselk.bessel_k_scaled_array")
    regions = np.array([spans[i][AUX] for i in bes], dtype=float).reshape(-1, 4)
    bes_points = float(sum(spans[i][POINTS] for i in bes))

    # euclid kernel entries: euclid spans not nested inside another euclid span
    euc = [i for i, ly in enumerate(layer) if ly == "euclid"]
    entries = [i for i in euc if parents[i] < 0 or layer[parents[i]] != "euclid"]

    # torus
    sums = idx("torus.green_lattice_sum") + idx("torus.green_lattice_sum_many")
    sum_set = set(sums)
    under_sum = [i for i in entries if _under(i, parents, sum_set)]
    sum_ms = [dur[i] * 1e3 for i in sums]
    sum_tail = tail_percentile(sum_ms)
    rep = idx("torus.representation_check")
    rep_set = set(rep)
    under_rep = [i for i in entries if _under(i, parents, rep_set)]

    # giraud: the benchmark's own kernels make top-level convolutions
    conv = idx("giraud.radial_convolve")
    top_conv = [i for i in conv if parents[i] < 0]
    evals = idx("giraud.evaluator")
    n_top = max(len(top_conv), 1)

    # parametrix
    pipe = idx("parametrix.run_pipeline")
    fft = idx("numpy.fft")
    radial = idx("parametrix.radial_fourier")
    pipe_set = set(pipe)
    peaks = [spans[i][AUX] for i in range(len(spans))
             if (i in pipe_set or _under(i, parents, pipe_set)) and isinstance(spans[i][AUX], int)]

    # mass: time inside the mass module, outermost spans only
    mass_ids = [i for i, ly in enumerate(layer) if ly == "mass"]
    mass_set = set(mass_ids)
    mass_outer = [i for i in mass_ids if not _under(i, parents, mass_set)]

    top = [i for i, p in enumerate(parents) if p < 0]

    m = {
        "besselk.calls": len(bes) / T,
        "besselk.points": bes_points / T,
        "besselk.points_per_call": bes_points / max(len(bes), 1),
        "besselk.busy_s": total(bes) / T,
        "besselk.points_series": float(regions[:, 0].sum()) / T,
        "besselk.points_quad": float(regions[:, 1].sum()) / T,
        "besselk.points_asym": float(regions[:, 2].sum()) / T,
        "besselk.points_halfint": float(regions[:, 3].sum()) / T,
        "euclid.kernel_calls": len(entries) / T,
        "euclid.kernel_points": float(sum(spans[i][POINTS] for i in entries)) / T,
        "euclid.kernel_self_s": float(sum(self_t[i] for i in euc)) / T,
        "torus.lattice_sums": len(sums) / T,
        "torus.lattice_sum_ms_p50": float(np.median(sum_ms)) if sum_ms else 0.0,
        "torus.lattice_sum_ms_tail": sum_tail[1] if sum_tail else 0.0,
        "torus.kernel_calls_per_sum": len(under_sum) / max(len(sums), 1),
        "torus.kernel_points_per_sum": float(sum(spans[i][POINTS] for i in under_sum)) / max(len(sums), 1),
        "torus.repcheck_s": total(rep) / T,
        "torus.repcheck_kernel_points": float(sum(spans[i][POINTS] for i in under_rep)) / T,
        "torus.repcheck_kernel_share": total(under_rep) / total(rep) if rep else 0.0,
        "giraud.convolve_points": len(conv) / T,
        "giraud.convolve_s_p50": float(np.median([dur[i] for i in conv])) if conv else 0.0,
        "giraud.evaluator_calls_per_point": len(evals) / T / n_top if top_conv else 0.0,
        "giraud.evaluator_nodes_per_point": float(sum(spans[i][POINTS] for i in evals)) / T / n_top if top_conv else 0.0,
        "giraud.evaluator_share": total(evals) / total(top_conv) if top_conv else 0.0,
        "giraud.certify_s": total(idx("giraud.certify_bound")) / T,
        "parametrix.pipeline_s": total(pipe) / T,
        "parametrix.compare_s": total(idx("parametrix.assemble_and_compare")) / T,
        "parametrix.error_field_s": total(idx("parametrix.error_field")) / T,
        "parametrix.radial_fourier_s": total(radial) / T,
        "parametrix.radial_fourier_points": float(sum(spans[i][POINTS] for i in radial)) / T,
        "parametrix.fft_calls": len(fft) / T,
        "parametrix.fft_points": float(sum(spans[i][POINTS] for i in fft)) / T,
        "parametrix.fft_s": total(fft) / T,
        "parametrix.unique_s": total(idx("numpy.unique")) / T,
        "parametrix.traced_peak_mb": max(peaks) / 2**20 if peaks else 0.0,
        "mass.torus_mass_calls": len(idx("mass.torus_mass")) / T,
        "mass.busy_s": total(mass_outer) / T,
        "trace.spans": len(spans) / T,
        "trace.coverage": total(top) / traced_wall if traced_wall > 0 else 0.0,
    }
    info = {
        "lattice_sum_tail_percentile": sum_tail[0] if sum_tail else None,
        "lattice_sum_samples": len(sum_ms),
        "top_level_spans": sorted({names[i] for i in top}),
    }
    return m, info


def _under(i, parents, targets: set) -> bool:
    p = parents[i]
    while p >= 0:
        if p in targets:
            return True
        p = parents[p]
    return False
