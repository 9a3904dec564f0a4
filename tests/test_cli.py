"""CLI: argument handling and end-to-end command behaviour."""

import gzip as stdgzip

import pytest

from repro.cli import build_parser, main
from repro.workloads.generators import generate


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.json"
    path.write_bytes(generate("json_records", 30000, seed=6))
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_bad_machine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compress", "x", "--machine",
                                       "POWER12"])


class TestCompress:
    def test_creates_gzip_output(self, sample_file, capsys):
        assert main(["compress", str(sample_file)]) == 0
        out_path = sample_file.with_name(sample_file.name + ".gz")
        assert stdgzip.decompress(out_path.read_bytes()) \
            == sample_file.read_bytes()
        captured = capsys.readouterr().out
        assert "ratio" in captured
        assert "modelled time" in captured

    def test_explicit_output_and_format(self, sample_file, tmp_path,
                                        capsys):
        out = tmp_path / "out.bin"
        assert main(["compress", str(sample_file), "-o", str(out),
                     "--fmt", "raw", "--strategy", "dynamic",
                     "--machine", "z15"]) == 0
        import zlib

        assert zlib.decompress(out.read_bytes(), -15) \
            == sample_file.read_bytes()


class TestDecompress:
    def test_roundtrip(self, sample_file, tmp_path, capsys):
        gz = tmp_path / "x.gz"
        main(["compress", str(sample_file), "-o", str(gz)])
        back = tmp_path / "back.json"
        assert main(["decompress", str(gz), "-o", str(back)]) == 0
        assert back.read_bytes() == sample_file.read_bytes()


class TestInfoCommands:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "POWER9" in out
        assert "z15" in out
        assert "DFLTCC" in out

    def test_advise(self, capsys):
        assert main(["advise", "65536"]) == 0
        out = capsys.readouterr().out
        assert "hardware" in out
        assert "break-even" in out

    def test_ratio_generator_source(self, capsys):
        assert main(["ratio", "generator:markov_text:20000"]) == 0
        out = capsys.readouterr().out
        assert "zlib -6" in out
        assert "NX dht" in out
        assert "842" in out

    def test_ratio_file_source(self, sample_file, capsys):
        assert main(["ratio", str(sample_file)]) == 0
        assert "codec comparison" in capsys.readouterr().out


class TestSelftestCommand:
    def test_passes_on_both_machines(self, capsys):
        assert main(["selftest"]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["selftest", "--machine", "z15"]) == 0


class TestCat:
    """``repro cat``: full decode, sidecar index, ranged random reads."""

    @pytest.fixture
    def gz_pair(self, tmp_path):
        """Two-member gzip archive on disk plus its plain bytes."""
        a = generate("markov_text", 60000, seed=7)
        b = generate("json_records", 40000, seed=8)
        from repro.deflate.containers import gzip_compress

        gz = tmp_path / "two.gz"
        gz.write_bytes(gzip_compress(a, level=6)
                       + gzip_compress(b, level=6))
        return gz, a + b

    def test_full_decode_writes_sidecar(self, gz_pair, tmp_path):
        gz, plain = gz_pair
        out = tmp_path / "plain.bin"
        assert main(["cat", str(gz), "-o", str(out)]) == 0
        assert out.read_bytes() == plain
        assert gz.with_name(gz.name + ".rsix").exists()

    def test_range_via_sidecar_index(self, gz_pair, tmp_path, capsys):
        gz, plain = gz_pair
        full = tmp_path / "full.bin"
        main(["cat", str(gz), "-o", str(full)])
        part = tmp_path / "part.bin"
        assert main(["cat", str(gz), "--range", "61000:2048",
                     "-o", str(part)]) == 0
        assert part.read_bytes() == plain[61000:63048]
        assert "via index" in capsys.readouterr().err

    def test_range_without_index_falls_back(self, gz_pair, tmp_path,
                                            capsys):
        gz, plain = gz_pair
        part = tmp_path / "part.bin"
        assert main(["cat", str(gz), "--range", "100:50", "-o",
                     str(part), "--no-index"]) == 0
        assert part.read_bytes() == plain[100:150]
        assert "full decode" in capsys.readouterr().err

    def test_corrupt_sidecar_ignored_not_trusted(self, gz_pair,
                                                 tmp_path, capsys):
        gz, plain = gz_pair
        gz.with_name(gz.name + ".rsix").write_bytes(b"RSIXgarbage")
        part = tmp_path / "part.bin"
        assert main(["cat", str(gz), "--range", "500:100", "-o",
                     str(part)]) == 0
        assert part.read_bytes() == plain[500:600]
        assert "ignoring index" in capsys.readouterr().err

    def test_bad_range_spec(self, gz_pair, capsys):
        gz, _ = gz_pair
        assert main(["cat", str(gz), "--range", "nonsense"]) != 0
        assert "OFF:LEN" in capsys.readouterr().err
        assert main(["cat", str(gz), "--range=-5:10"]) != 0

    def test_stdout_path(self, gz_pair, capsysbinary):
        gz, plain = gz_pair
        assert main(["cat", str(gz), "--no-index"]) == 0
        assert capsysbinary.readouterr().out == plain


class TestUnreachableServer:
    """Connection refused is one line on stderr and exit 1 — no traceback."""

    @pytest.fixture()
    def free_port(self):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            yield probe.getsockname()[1]

    def test_submit_refused(self, sample_file, free_port, capsys):
        assert main(["submit", str(sample_file), "--port",
                     str(free_port)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: server unreachable")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_top_refused(self, free_port, capsys):
        assert main(["top", "--url",
                     f"http://127.0.0.1:{free_port}", "--once"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot reach ops endpoint")
        assert "Traceback" not in err

    def test_stats_url_refused(self, free_port, capsys):
        assert main(["stats", "--url",
                     f"http://127.0.0.1:{free_port}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot reach ops endpoint")
        assert "Traceback" not in err


class TestChaosNetwork:
    def test_single_scenario_survives(self, capsys):
        assert main(["chaos", "--network", "--scenario", "net_truncate",
                     "--jobs", "8", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "network chaos campaign" in out
        assert "SURVIVED" in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["chaos", "--network", "--scenario", "bogus"]) == 2
        assert "unknown network scenario" in capsys.readouterr().err


def _row(out: str, scenario: str) -> list[str]:
    return next(line.split() for line in out.splitlines()
                if line.startswith(scenario + " "))


class TestChaosFlags:
    def test_network_runs_the_jobs_asked_for(self, capsys):
        # 200 is the pool's default; it once silently meant 40 here.
        assert main(["chaos", "--network", "--scenario", "net_baseline",
                     "--jobs", "200", "--clients", "4"]) == 0
        row = _row(capsys.readouterr().out, "net_baseline")
        assert row[1] == "200"  # jobs
        assert row[5] == "200"  # executions

    def test_network_and_under_load_exclude_each_other(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["chaos", "--network", "--under-load"])
        assert info.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize("stack", [[], ["--network"]])
    def test_exec_workers_needs_under_load(self, capsys, stack):
        assert main(["chaos", *stack, "--exec-workers", "2"]) == 2
        assert "(--under-load) only" in capsys.readouterr().err

    def test_under_load_runs_the_scenario_it_checked(self, capsys):
        assert main(["chaos", "--under-load", "--scenario", "worker_kill"]) \
            == 2
        assert "chip faults only" in capsys.readouterr().err
        assert main(["chaos", "--under-load", "--scenario", "corrupt_output",
                     "--jobs", "40", "--clients", "2", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "chaos under load" in out
        assert _row(out, "corrupt_output")[1] == "40"
        assert "'corrupt_output'" in out
