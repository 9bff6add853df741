"""Tests for the top-level public API surface.

A downstream user should be able to rely on ``repro``'s documented
entry points without reaching into submodules; these tests pin that
surface (and the package metadata) down.
"""

import importlib
import os
import subprocess
import sys

import pytest

import repro


class TestPublicSurface:
    def test_version_is_exposed(self):
        assert repro.__version__
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ advertises missing name {name!r}"

    def test_documented_subpackages_import(self):
        for module in (
            "repro.config",
            "repro.workloads",
            "repro.caches",
            "repro.cores",
            "repro.simulators",
            "repro.profiling",
            "repro.contention",
            "repro.core",
            "repro.metrics",
            "repro.engine",
            "repro.experiments",
            "repro.cli",
        ):
            assert importlib.import_module(module) is not None

    def test_subpackage_alls_resolve(self):
        for module_name in (
            "repro.config",
            "repro.workloads",
            "repro.caches",
            "repro.cores",
            "repro.simulators",
            "repro.profiling",
            "repro.contention",
            "repro.core",
            "repro.metrics",
            "repro.engine",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.__all__ advertises {name!r}"

    def test_public_callables_have_docstrings(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not (obj.__doc__ or "").strip():
                undocumented.append(name)
        assert not undocumented, f"public API without docstrings: {undocumented}"

    def test_no_kernel_choice_is_exported(self):
        # Every layer has one production path; the per-access loops are
        # test oracles in repro.oracles, not selectable kernels.
        removed = {"KERNELS", "GENERATOR_KERNELS", "MPPM_KERNELS", "MULTI_CORE_KERNELS"}
        for module_name in ("repro", "repro.workloads", "repro.simulators", "repro.core"):
            module = importlib.import_module(module_name)
            assert not removed & set(module.__all__), module_name
            assert not any(hasattr(module, name) for name in removed), module_name

    def test_heavy_modules_stay_off_the_import_floor(self):
        # Every `repro` process pays for what `import repro, repro.cli`
        # loads: these are imported only by the code paths that use them.
        heavy = [
            "scipy",
            "repro.oracles",
            "repro.service",
            "repro.ingest",
            "repro.engine.remote",
            "concurrent.futures.process",
            "multiprocessing",
        ]
        code = (
            "import sys, repro, repro.cli; "
            f"print(sorted(name for name in {heavy} if name in sys.modules))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.strip() == "[]"


class TestSuiteContract:
    def test_suite_names_match_spec_cpu2006(self):
        suite = repro.spec_cpu2006_like_suite()
        assert len(suite) == 29
        # 12 integer + 17 floating-point benchmark names from SPEC CPU2006.
        expected = {
            "perlbench", "bzip2", "gcc", "mcf", "gobmk", "hmmer", "sjeng", "libquantum",
            "h264ref", "omnetpp", "astar", "xalancbmk", "bwaves", "gamess", "milc",
            "zeusmp", "gromacs", "cactusADM", "leslie3d", "namd", "dealII", "soplex",
            "povray", "calculix", "GemsFDTD", "tonto", "lbm", "wrf", "sphinx3",
        }
        assert set(suite.names) == expected

    def test_baseline_machine_and_design_space_are_consistent(self):
        machine = repro.baseline_machine(num_cores=4, llc_config=1)
        design_space = repro.llc_design_space(num_cores=4)
        assert design_space[0].llc == machine.llc
        assert repro.machine_with_llc(6).llc.size_bytes == 2 * 1024 * 1024
        assert repro.scaled(machine, 16).llc.size_bytes == machine.llc.size_bytes // 16
