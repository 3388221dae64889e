import json
import os
import subprocess
import sys

import numpy as np
import pytest

from steinlab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_PASS,
    EXIT_USAGE,
    ConfigError,
    ExperimentConfig,
    parse_config,
    report_schema_version,
    run,
    serialize_config,
)
from steinlab.metrics import ergodicity_probe

REPORT_SCHEMA = {
    "type": "object",
    "required": ["payload", "timing"],
    "properties": {
        "payload": {
            "type": "object",
            "required": ["schema_version", "command", "config", "seed", "results", "pass", "versions"],
            "properties": {
                "schema_version": {"type": "string"},
                "command": {"type": "string"},
                "config": {"type": "object"},
                "seed": {"type": "integer"},
                "results": {"type": "object"},
                "pass": {"type": "boolean"},
                "versions": {"type": "object"},
            },
        },
        "timing": {
            "type": "object",
            "required": ["wall_time_s"],
        },
    },
}


class TestConfig:
    def test_round_trip_identity(self):
        cfg = ExperimentConfig(command="rigidity", seed=7, alpha=1.25, shift=(0.1, -0.2), d=2)
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert serialize_config(parse_config(text)) == text

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\ncommand = normalize\nbogus = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[mystery]\nx = 1\n")

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\ncommand = frobnicate\n")


class TestSchemaVersion:
    def test_constant(self):
        assert report_schema_version() == "1.0.0"

    def test_every_report_carries_it(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        run(["normalize", "--alpha", "1.5", "--d", "1", "--out", str(out)])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["payload"]["schema_version"] == report_schema_version()

    def test_report_validates_against_schema(self, tmp_path, capsys):
        import jsonschema

        out = tmp_path / "r.json"
        run(["normalize", "--alpha", "1.5", "--d", "2", "--out", str(out)])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, REPORT_SCHEMA)


class TestCommands:
    def test_normalize_passes(self, capsys):
        code = run(["normalize", "--alpha", "1.5", "--d", "2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_PASS
        assert doc["payload"]["results"]["normalization_residual"] < 1e-4

    @pytest.mark.parametrize("alpha", ["1.5", "1.9"])
    def test_normalize_passes_in_d3(self, alpha, capsys):
        code = run(["normalize", "--alpha", alpha, "--d", "3"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_PASS
        assert doc["payload"]["results"]["normalization_residual"] < 1e-4
        # an explicit atom count is honoured: 1024 atoms miss the gate
        assert run(["normalize", "--alpha", alpha, "--d", "3", "--atoms", "1024"]) == EXIT_CHECK_FAILED

    def test_missing_alpha_is_usage_error(self, capsys):
        code = run(["normalize"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "alpha" in captured.err

    def test_malformed_alpha_is_usage_error(self, capsys):
        code = run(["normalize", "--alpha", "oops"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_residual_sub1_passes(self, capsys):
        code = run(["residual", "--regime", "stable_sub1", "--n", "60000", "--seed", "3"])
        capsys.readouterr()
        assert code == EXIT_PASS

    def test_sample_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "batch.csv"
        code = run(
            ["sample", "--alpha", "1.5", "--d", "2", "--n", "100", "--seed", "5", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == EXIT_PASS
        assert out.read_text().splitlines()[0] == "x1,x2"

    def test_unsupported_family_is_usage_error(self, capsys):
        # alpha > 1 with a one-atom sphere has no sampler
        code = run(["sample", "--alpha", "1.5", "--d", "1", "--sphere", "one_atom", "--n", "10"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_budget_zero_is_usage_error(self, capsys):
        code = run(["solve-stein", "--alpha", "1.5", "--d", "1", "--budget", "0"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err.startswith("error:") and "budget" in captured.err

    def test_zero_directions_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "residual.ini"
        cfg.write_text(serialize_config(ExperimentConfig(command="residual", d=2, n=2000, n_dirs=0)))
        code = run(["residual", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err.startswith("error:") and "atom" in captured.err

    @pytest.mark.parametrize("R", ["0", "-3"])
    def test_rigidity_radius_not_positive_is_usage_error(self, R, capsys):
        code = run(["rigidity", "--alpha", "1.5", "--d", "1", "--R", R])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("error:") and "radius" in captured.err
        assert "Traceback" not in captured.err

    def test_rigidity_small(self, capsys):
        for d in ("2", "3"):
            code = run(["rigidity", "--alpha", "1.5", "--d", d, "--R", "16"])
            doc = json.loads(capsys.readouterr().out)
            rows = doc["payload"]["results"]["curve"]
            assert [r["R"] for r in rows] == [4.0, 8.0, 16.0]
            # the pass verdict tracks the last ratio against [0.95, 1.05]
            expected = EXIT_PASS if 0.95 <= rows[-1]["ratio"] <= 1.05 else EXIT_CHECK_FAILED
            assert code == expected

    def test_module_form_prints_a_report(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "steinlab.cli", "normalize", "--alpha", "1.5", "--d", "1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == EXIT_PASS, proc.stderr
        assert json.loads(proc.stdout)["payload"]["pass"] is True


class TestReproducibility:
    def test_identical_payloads_across_thread_counts(self, tmp_path, capsys, monkeypatch):
        outs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("STEINLAB_THREADS", threads)
            out = tmp_path / f"rep_{threads}.json"
            code = run(
                [
                    "residual",
                    "--regime",
                    "sd_general",
                    "--alpha",
                    "1.5",
                    "--d",
                    "1",
                    "--n",
                    "40000",
                    "--seed",
                    "11",
                    "--out",
                    str(out),
                ]
            )
            capsys.readouterr()
            assert code == EXIT_PASS
            outs.append(json.loads(out.read_text())["payload"])
        assert json.dumps(outs[0], sort_keys=True) == json.dumps(outs[1], sort_keys=True)

    def test_ergodicity_payload_is_the_probe_and_reruns_byte_identical(self, tmp_path, capsys):
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            run(
                ["ergodicity", "--alpha", "1.5", "--d", "1", "--n", "20000", "--seed", "21",
                 "--t-max", "3.0", "--out", str(out)]
            )
            capsys.readouterr()
            payload = json.loads(out.read_text())["payload"]
            texts.append(json.dumps(payload, sort_keys=True))
        fit = ergodicity_probe(1.5, 1, np.linspace(0.25, 3.0, 8), 20000, 21)
        assert payload["results"]["distances"] == list(fit.distances)
        assert texts[0] == texts[1]

    def test_rerun_byte_identical(self, tmp_path, capsys):
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            run(["normalize", "--alpha", "1.25", "--d", "1", "--out", str(out)])
            capsys.readouterr()
            texts.append(json.dumps(json.loads(out.read_text())["payload"], sort_keys=True))
        assert texts[0] == texts[1]
