"""What importing and running the package loads, checked in fresh interpreters."""

import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spherecoef
from spherecoef import cli

SRC = str(Path(spherecoef.__file__).resolve().parents[1])


def _modules_after(statement):
    """Names in sys.modules after running statement in a new interpreter."""
    code = f"import sys\n{statement}\nprint('\\n'.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def _scipy_and_masked(loaded):
    """The scipy and numpy.ma modules among loaded names, sorted."""
    return sorted(
        name
        for name in loaded
        if name.split(".")[0] == "scipy" or name == "numpy.ma" or name.startswith("numpy.ma.")
    )


@pytest.mark.parametrize("statement", ["import spherecoef", "import spherecoef.cli"])
def test_import_leaves_scipy_stats_unloaded(statement):
    loaded = _modules_after(statement)
    # scipy is a test-only dependency: no runtime path imports it.
    assert _scipy_and_masked(loaded) == []
    # the config is read by the CLI's own one-pass reader
    assert "configparser" not in loaded
    # The package does not import its CLI, so that runpy runs
    # python -m spherecoef.cli without a second copy of the module.
    assert ("spherecoef.cli" in loaded) == (statement == "import spherecoef.cli")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "{ini}"],
        ["estimate", "{data}", "--grid-res", "6"],
        ["diagnose", "{data}"],
        ["bench", "--threads", "1", "--config", "{bench_ini}"],
    ],
    ids=["simulate", "estimate", "diagnose", "bench"],
)
def test_cli_commands_leave_scipy_unloaded(tmp_path, argv):
    data = str(tmp_path / "data.csv")
    ini = tmp_path / "m.ini"
    ini.write_text("[model]\nn_obs = 60\n")
    assert cli.main(["simulate", "--config", str(ini), "--out", data, "--seed", "1"]) == 0
    bench_ini = tmp_path / "bench.ini"
    bench_ini.write_text("[bench]\nn_grid = 60 120\nreplications = 1\nresolution = 8\n")
    args = [a.format(data=data, ini=ini, bench_ini=bench_ini) for a in argv]
    args += ["--out", str(tmp_path / "out.csv")]
    loaded = _modules_after(f"from spherecoef import cli\nassert cli.main({args!r}) == 0")
    assert _scipy_and_masked(loaded) == []


def test_interval_and_d4_product_rule_leave_scipy_unloaded():
    """Intervals in d = 2, 3 and 4 (the squared series' chebmul included)
    and the d = 4 product rule load neither scipy nor numpy.ma."""
    loaded = _modules_after(
        "import numpy as np\n"
        "from spherecoef import estimator, simulate, sphere\n"
        "sample = simulate.generate(simulate.DgpSpec.model_1(n_obs=60, seed=1)).sample\n"
        "est = estimator.estimate_fbeta(sample, estimator.EstimatorConfig())\n"
        "estimator.confidence_interval(est, [0.0, 0.0, 1.0])\n"
        "for d in (2, 4):\n"
        "    x = sphere.sample_uniform(d, 60, seed=d)\n"
        "    x[:, 0] = np.abs(x[:, 0])\n"
        "    sample = estimator.ChoiceSample(y=np.arange(60) % 2, x=x)\n"
        "    estimator.confidence_interval(estimator.estimate_fbeta(sample), np.eye(d)[-1])\n"
        "sphere.build_quadrature(4, 16, method='product')"
    )
    assert _scipy_and_masked(loaded) == []


_MODULES = ["cli", "estimator", "gegenbauer", "hemisphere", "kernels", "simulate", "sphere"]

# Names deleted from the runtime package, by the module that held them.
_REMOVED = {
    "kernels": [
        "_cosine_blocks",
        "kernel_eval",
        "kernel_odd_eval",
        "_series_coeffs",
        "chi_weight",
        "chi_weights",
        "projector_kernel",
        "laplacian_eigenvalue",
        # private since the self-sums moved here: nothing outside reads them
        "chebyshev_sums",
        "harmonic_moments",
        "harmonic_series",
        # folded into _degree_sums, which runs the whole loop
        "_chebyshev_sums",
        # the Gegenbauer-series form of a mixture's row: _degree_sums sums
        # q_n, and _projector_diagonal is the one per-degree constant
        "projector_constants",
        "_at_one",
        # the standard error squares its row's Chebyshev coefficients, which
        # no table maps back to projector ones
        "squared_row",
        # private: mechanism that only the estimator and the tests read
        "projector_diagonal",
        "chi_table",
        "degree_sums",
        "harmonic_basis",
        "self_sums",
    ],
    # one row, eigenvalues, replaced the scalar and the row stacked from it
    "hemisphere": ["invert_by_laplacian", "_lower_area", "eigenvalue", "_eigenvalues"],
    "gegenbauer": [
        # series_eval sums the normalised polynomials, so C_n(1) is never formed
        "eval_all",
        "sweep",
        "_series_eval",
        "squared_series",
        "eval_at_one",
        # private: the recurrence and the tables that kernels reads
        "chebyshev",
        "work_size",
        "connection",
    ],
    # private: the checks and the coarea factor behind the public functions
    "sphere": ["angle_between", "check_on_sphere", "normalize", "coarea_factor"],
    "estimator": [
        "SELF_SUMS_BLOCK",
        "fx_self_evaluation",
        "FxSelfEvaluation",
        "_leave_in_values",
        # the fundamental system, which the explicit harmonic basis replaced
        "_fundamental_system",
        "_system_sums",
        "_degree_points",
        "_system_size",
        # the self-sums, their two paths and their rule, now in kernels
        "_self_sums",
        "_pair_sums",
        "_basis_sums",
        "_band_length",
        "BASIS_RATIO",
    ],
    "cli": ["_key_lines", "configparser"],
}


@pytest.mark.parametrize("name", ["spherecoef"] + [f"spherecoef.{m}" for m in _MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_removed_names_are_gone():
    reachable = [
        f"{where}.{attr}"
        for module, names in _REMOVED.items()
        for attr in names
        for where in ("spherecoef", f"spherecoef.{module}")
        if hasattr(importlib.import_module(where), attr)
    ]
    assert reachable == []
    # the package re-exports neither; perfbench imports them from estimator
    assert [name for name in ("estimate_fx", "estimate_choice_probability") if hasattr(spherecoef, name)] == []
    from spherecoef import estimator, kernels
    from spherecoef.kernels import HarmonicMixture
    from spherecoef.simulate import SimulationDraw
    from spherecoef.sphere import QuadratureRule

    assert not hasattr(estimator.ChoiceProbabilityEstimate, "coefficient_odd_part")
    assert not hasattr(SimulationDraw, "true_fx") and not hasattr(SimulationDraw, "true_fbeta")
    # state nothing read: the fit's kernel, the draw's design, and a minus
    # mass that is always -mass_plus (now a property)
    assert [f.name for f in dataclasses.fields(estimator.FxEstimate)] == ["mixture"]
    assert [f.name for f in dataclasses.fields(SimulationDraw)] == ["sample", "covariates", "raw_coefficients"]
    fields = [f.name for f in dataclasses.fields(estimator.IdentificationReport)]
    assert fields == ["axis", "mass_plus", "violation_score", "threshold"]
    # weights and trimming_floor are read from the mixture and the config;
    # fx_values is a constructor keyword and a read, not a field (a plug-in
    # fit recomputes them from its sample)
    fields = {f.name for f in dataclasses.fields(estimator.DensityEstimate)}
    assert fields == {"odd", "config", "fx_band", "sample"}
    assert not hasattr(estimator.DensityEstimate, "kernel")
    assert not hasattr(estimator.DensityEstimate, "z_values")
    # a mixture is its anchors, weights and one coefficient row; its
    # dimension is read from the anchors
    assert [f.name for f in dataclasses.fields(HarmonicMixture)] == ["anchors", "weights", "degree_coeffs"]
    assert not hasattr(HarmonicMixture, "degrees") and not hasattr(HarmonicMixture, "with_degree_coeffs")
    # the per-anchor route (a table of terms per anchor and point) lives in
    # tests/oracles.py only; the standard error reads per-degree sums
    assert not hasattr(HarmonicMixture, "terms")
    # evaluation takes degree_coeffs rows as they are
    assert not hasattr(HarmonicMixture, "series_coeffs")
    # nu = (d - 2) / 2 is derived where a sum needs it, not kept on the spec
    assert not hasattr(kernels.KernelSpec, "nu")
    # a rule is its nodes and weights; which method built it was never read
    assert [f.name for f in dataclasses.fields(QuadratureRule)] == ["points", "weights", "dimension"]
    removed_params = [
        (HarmonicMixture.evaluate_series, "chunk_size"),
        (HarmonicMixture.evaluate, "chunk_size"),
        (kernels._self_sums, "budget"),
        (kernels._pair_sums, "budget"),
        (kernels._basis_sums, "budget"),
        (kernels._self_sums, "nu"),
        (kernels._pair_sums, "nu"),
        (kernels._basis_sums, "nu"),
        (kernels._degree_sums, "nu"),
        (estimator.identification_diagnostic, "rel_threshold"),
        # the scores read the filter rows alone, as the projector-form self-sums do
        (estimator._lscv_scores, "rows"),
        # the sample size is the [model] section's n_obs key
        (cli.build_dgp, "n_obs"),
    ]
    assert [p for f, p in removed_params if p in inspect.signature(f).parameters] == []
    # only kernels reads the harmonic moments' layout; estimator reads the
    # leave-out diagonal q_n(x, x) = h(n, d) / |S^{d-1}| from
    # kernels._projector_diagonal, and neither gegenbauer, C_n(1), a
    # projector constant nor h(n, d)
    layout = ["_layout", "harmonic_moments", "harmonic_series", "_harmonic_moments", "_harmonic_series"]
    assert [name for name in layout if hasattr(estimator, name)] == []
    constants = ("gegenbauer", "eval_at_one", "_at_one", "projector_constants", "eigenspace_dim")
    assert [name for name in constants if hasattr(estimator, name)] == []


def _readme_public_api():
    """README.md's "Public API" section as {module: [names]}, one entry per
    bullet that opens with a module name, up to the next bullet or blank
    line."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for bullet in re.split(r"\n(?=- )|\n\n", section):
        head = re.match(r"- `(spherecoef(?:\.\w+)?)`: ", bullet)
        if head:
            listed[head.group(1)] = re.findall(r"`([^`]+)`", bullet[head.end():])
    return listed


def test_readme_public_api_names_exactly_each_modules_all():
    """The README's list cannot drift from the code: every module, and
    each one's __all__ in order."""
    listed = _readme_public_api()
    assert sorted(listed) == sorted(["spherecoef"] + [f"spherecoef.{m}" for m in _MODULES])
    for name, names in listed.items():
        assert names == list(importlib.import_module(name).__all__), name
