"""CLI error contract: user errors exit 2 with one actionable line.

``--strict`` on ``evaluate``/``figures`` arms the invariant layer for
the whole command; any ``ConfigError``/``ValueError``/``InvariantError``
reaching ``main()`` becomes a single ``error: ...`` line on stderr and
exit code 2 — never a traceback.
"""

from __future__ import annotations

from repro.cli import main
from repro.validate import InvariantError, strict_enabled


class TestErrorExitCode:
    def test_degenerate_codec_geometry_exits_2(self, capsys):
        assert main(["codec", "--width", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1  # exactly one line
        assert "width" in captured.err

    def test_invariant_error_exits_2(self, capsys, monkeypatch):
        import repro.analysis.headline as headline

        def broken():
            raise InvariantError("cache.l1.accounting", "hits+misses drifted")

        monkeypatch.setattr(headline, "workload_characterizations", broken)
        assert main(["characterize"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "cache.l1.accounting" in err

    def test_config_error_exits_2(self, capsys, monkeypatch):
        import repro.analysis.headline as headline

        def broken():
            from repro.config import CacheConfig

            CacheConfig(size_bytes=0, associativity=4)

        monkeypatch.setattr(headline, "workload_characterizations", broken)
        assert main(["characterize"]) == 2
        err = capsys.readouterr().err
        assert "CacheConfig.size_bytes" in err


class TestStrictFlag:
    def test_strict_flag_arms_strict_mode_for_the_command(self, monkeypatch, capsys):
        import repro.core.runner as runner_mod
        import repro.workloads.vp9.targets as vp9_targets

        seen = {}

        class StubResult:
            names = ["stub"]
            mean_pim_core_energy_reduction = 0.5
            mean_pim_acc_energy_reduction = 0.6
            mean_pim_core_speedup = 1.5
            mean_pim_acc_speedup = 2.0

            @staticmethod
            def rows():
                return []

        class StubRunner:
            def evaluate(self, targets):
                seen["strict"] = strict_enabled()
                return StubResult()

        monkeypatch.setattr(runner_mod, "ExperimentRunner", StubRunner)
        monkeypatch.setattr(vp9_targets, "video_pim_targets", lambda: ["t"])

        assert main(["evaluate", "--workload", "vp9", "--strict"]) == 0
        assert seen["strict"] is True
        capsys.readouterr()

        assert main(["evaluate", "--workload", "vp9"]) == 0
        assert seen["strict"] is strict_enabled()  # back to ambient mode

    def test_evaluate_strict_end_to_end(self, capsys):
        """The real Table-1 chrome evaluation is violation-free under
        --strict: it must exit 0 and print the normal report."""
        assert main(["evaluate", "--workload", "chrome", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "texture_tiling" in out
        assert "mean energy reduction" in out

    def test_figures_accept_strict(self, capsys):
        assert main(["figures", "--figure", "Table 1", "--strict"]) == 0
        assert "Table 1" in capsys.readouterr().out
