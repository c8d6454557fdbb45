import json

import pytest

from wittscaffold.cli import (
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PRECISION,
    EXIT_VALIDATION,
    main,
    parse_monomial,
)
from wittscaffold.construction import DEFAULT_GUARD_DIGITS, MAX_E0, MAX_P, JobConfig


EXAMPLE_CFG = """\
# worked example parameters
p = 3
e0 = 6
a1 = pi0^-1
mu = pi0^-1
"""

P2_CFG = """\
p = 2
e0 = 4
a1 = pi0^-1
mu = pi0^-1
"""

REJECTED_CFG = """\
p = 3
e0 = 6
a1 = pi0^-2
mu = pi0^-1
"""


@pytest.fixture
def example_cfg(tmp_path):
    path = tmp_path / "example.cfg"
    path.write_text(EXAMPLE_CFG)
    return str(path)


@pytest.fixture
def p2_cfg(tmp_path):
    path = tmp_path / "p2.cfg"
    path.write_text(P2_CFG)
    return str(path)


@pytest.fixture
def rejected_cfg(tmp_path):
    path = tmp_path / "rejected.cfg"
    path.write_text(REJECTED_CFG)
    return str(path)


class TestMonomialParsing:
    def test_forms(self):
        assert parse_monomial("pi0^-1") == (1, -1)
        assert parse_monomial("2*pi0^-3") == (2, -3)
        assert parse_monomial("-1*pi0^2") == (-1, 2)
        assert parse_monomial("7") == (7, 0)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_monomial("x1^2")


class TestValidate:
    def test_example_passes(self, example_cfg, capsys):
        assert main(["validate", "--config", example_cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "-9/4 < -1" in out
        assert "54 > 38" in out
        assert "46/9" in out
        assert "inconsistent-as-printed" in out

    def test_rejection_names_inequality(self, rejected_cfg, capsys):
        assert main(["validate", "--config", rejected_cfg]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "second-bound" in out
        assert "9 > 16" in out

    def test_trivially_bad_mu(self, tmp_path, capsys):
        path = tmp_path / "m0.cfg"
        path.write_text("p = 3\ne0 = 6\na1 = pi0^-1\nmu = 1\n")
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
        assert "positive-m" in capsys.readouterr().out

    def test_zero_inputs_fail_validation_cleanly(self, tmp_path, capsys):
        path = tmp_path / "z.cfg"
        path.write_text("p = 3\ne0 = 6\na1 = 0\nmu = pi0^-1\n")
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
        assert "nonzero" in capsys.readouterr().out
        path.write_text("p = 3\ne0 = 6\na1 = pi0^-1\nmu = 0\n")
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
        assert "nonzero" in capsys.readouterr().out

    def test_p2_passes(self, p2_cfg):
        assert main(["validate", "--config", p2_cfg]) == EXIT_OK


class TestAnalyze:
    def test_example_json(self, example_cfg, capsys):
        assert main(["analyze", "--config", example_cfg, "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        ram = report["ramification"]
        assert (ram["b1"], ram["m"], ram["b2"], ram["u2"]) == (1, 1, 10, 4)
        ms = report["module_structure"]
        assert ms["free"] is True
        assert ms["generator"]["printed"] == "pi0^3*x1^2*y2^2"
        assert ms["valuation_table"] == [1, 4, 7, 2, 5, 8, 3, 6, 0]
        assert report["scaffold_tables"]["w"] == [0, 0, 0, 1, 1, 1, 2, 2, 3]

    def test_p2_json(self, p2_cfg, capsys):
        assert main(["analyze", "--config", p2_cfg, "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ramification"]["b2"] == 5
        assert report["module_structure"]["free"] is True

    def test_json_deterministic(self, example_cfg, capsys):
        main(["analyze", "--config", example_cfg, "--json"])
        first = capsys.readouterr().out
        main(["analyze", "--config", example_cfg, "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_text_and_json_agree(self, example_cfg, capsys):
        main(["analyze", "--config", example_cfg, "--json"])
        report = json.loads(capsys.readouterr().out)
        main(["analyze", "--config", example_cfg])
        text = capsys.readouterr().out
        tables = report["scaffold_tables"]
        assert f"w = {tables['w']}" in text
        assert f"d = {tables['d']}" in text
        ram = report["ramification"]
        assert f"b2 = {ram['b2']}" in text
        vt = report["module_structure"]["valuation_table"]
        assert str(vt) in text

    def test_no_verdict_when_bound_fails(self, tmp_path, capsys):
        path = tmp_path / "nb.cfg"
        path.write_text("p = 3\ne0 = 6\na1 = pi0^-1\nmu = pi0^-2\n")
        assert main(["analyze", "--config", str(path), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["module_structure"]["free"] is None

    def test_validation_failure_exit(self, rejected_cfg, capsys):
        assert main(["analyze", "--config", rejected_cfg]) == EXIT_VALIDATION
        capsys.readouterr()


class TestAudit:
    def test_structural_checks_only(self, example_cfg, capsys):
        rc = main(["audit", "--config", example_cfg, "--sample", "0",
                   "--seed", "0", "--json"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        names = [c["name"] for c in report["galois"]]
        assert "witt-congruence" in names
        assert "digit-shift-and-drop" in names

    def test_deterministic_given_seed(self, p2_cfg, capsys):
        main(["audit", "--config", p2_cfg, "--sample", "5", "--seed", "7",
              "--json"])
        first = capsys.readouterr().out
        main(["audit", "--config", p2_cfg, "--sample", "5", "--seed", "7",
              "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_fault_injection_fails_witt_congruence(self, example_cfg, capsys):
        rc = main(["audit", "--config", example_cfg, "--sample", "0",
                   "--seed", "0", "--fault-inject", "sigma1", "--json"])
        assert rc == EXIT_INVARIANT
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert "witt-congruence" in report["failed_names"]


class TestReproduceExample:
    def test_matches_golden(self, capsys):
        assert main(["reproduce-example"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "MATCH" in out

    def test_json_form(self, capsys):
        assert main(["reproduce-example", "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["matched"] is True
        assert report["differences"] == {}


class TestPrecisionExhaustion:
    @staticmethod
    def counted_builds(monkeypatch, exhaust):
        """Record the guard digits of every build; with ``exhaust``, each
        build runs out of precision right after its construction."""
        from wittscaffold import pipeline
        from wittscaffold.errors import PrecisionExhausted

        digits = []
        construct = pipeline.construct_extension

        def construct_counted(*args, guard_digits, **kwargs):
            digits.append(guard_digits)
            return construct(*args, guard_digits=guard_digits, **kwargs)

        def sigma1_exhausted(*args, **kwargs):
            raise PrecisionExhausted("forced")

        monkeypatch.setattr(pipeline, "construct_extension", construct_counted)
        if exhaust:
            monkeypatch.setattr(pipeline, "compute_sigma1", sigma1_exhausted)
        return digits

    def test_exit_code(self, example_cfg, capsys, monkeypatch):
        # exit 4 comes only once the bounded retries are spent
        digits = self.counted_builds(monkeypatch, exhaust=True)
        rc = main(["analyze", "--config", example_cfg,
                   "--precision", "108", "--guard-digits", "0"])
        assert rc == EXIT_PRECISION
        captured = capsys.readouterr()
        assert "precision exhausted: forced" in captured.err
        assert captured.out == ""
        assert digits == [0, 1, 2, 4, 8]

    def test_retry_stops_at_the_first_build_that_succeeds(self, example_cfg,
                                                         capsys, monkeypatch):
        # the worked example first succeeds with 4 guard digits
        digits = self.counted_builds(monkeypatch, exhaust=False)
        assert main(["analyze", "--config", example_cfg, "--json",
                     "--guard-digits", "0"]) == EXIT_OK
        capsys.readouterr()
        assert digits == [0, 1, 2, 4]

    def test_validation_failure_is_not_retried(self, rejected_cfg, capsys,
                                               monkeypatch):
        digits = self.counted_builds(monkeypatch, exhaust=True)
        assert main(["analyze", "--config", rejected_cfg]) == EXIT_VALIDATION
        capsys.readouterr()
        assert digits == [DEFAULT_GUARD_DIGITS]


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("p = 3\ne0 = 6\na1 = pi0^-1\nmu = pi0^-1\nbogus = 1\n")
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
        assert "unknown key" in capsys.readouterr().err

    def test_missing_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "short.cfg"
        path.write_text("p = 3\ne0 = 6\n")
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
        assert "missing required" in capsys.readouterr().err

    def test_config_precision_and_format(self, tmp_path, capsys):
        path = tmp_path / "fmt.cfg"
        path.write_text(
            "p = 3\ne0 = 6\na1 = pi0^-1\nmu = pi0^-1\n"
            "precision = 120\nformat = json\n"
        )
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["precision_v2"] == 120


class TestInputGaps:
    @pytest.mark.parametrize("p,e0,message", [
        (3, 0, "e0 must be at least 1"),
        (0, 6, "p must be a prime"),
    ])
    def test_zero_p_or_e0_is_a_validation_failure(self, tmp_path, capsys,
                                                  p, e0, message):
        path = tmp_path / "zero.cfg"
        path.write_text(f"p = {p}\ne0 = {e0}\na1 = pi0^-1\nmu = pi0^-1\n")
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_huge_even_p_is_a_validation_failure(self, tmp_path, capsys):
        # the primality test used to take a float square root, which
        # raised OverflowError for a p this large
        path = tmp_path / "huge.cfg"
        p = 2 * 10**399
        assert len(str(p)) == 400
        path.write_text(f"p = {p}\ne0 = 6\na1 = pi0^-1\nmu = pi0^-1\n")
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
        assert "p must be prime" in capsys.readouterr().err

    @pytest.mark.parametrize("p,e0,message", [
        # a prime whose trial division up to sqrt(p) never ended
        (10**18 + 3, 6, "p out of the supported range"),
        (17, 20, "p out of the supported range"),
        # e0 zeros used to be allocated per field: OverflowError
        (3, 10**26 - 1, "e0 out of the supported range"),
        (3, 1001, "e0 out of the supported range"),
    ])
    def test_out_of_range_p_or_e0_is_a_validation_failure(
            self, tmp_path, capsys, p, e0, message):
        path = tmp_path / "range.cfg"
        path.write_text(f"p = {p}\ne0 = {e0}\na1 = pi0^-1\nmu = pi0^-1\n")
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_range_ends_are_supported(self):
        JobConfig(p=MAX_P, e0=MAX_E0, a1=(1, -1), mu=(1, -1))

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_precision_rejected(self, tmp_path, capsys, where, value):
        path = tmp_path / "prec.cfg"
        text = EXAMPLE_CFG
        argv = ["validate", "--config", str(path), "--json"]
        if where == "flag":
            argv += ["--precision", value]
        else:
            text += f"precision = {value}\n"
        path.write_text(text)
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "precision must be a positive" in captured.err
        assert captured.out == ""

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        # a repeated key used to override the earlier value silently, so
        # this config was analysed as p = 2 and passed
        path = tmp_path / "dup.cfg"
        path.write_text(EXAMPLE_CFG + "p = 2\n")
        assert main(["validate", "--config", str(path), "--json"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"{path}:6: duplicate key 'p'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key, value, lineno, message", [
        ("p", "abc", 2, "expected an integer, got 'abc'"),
        ("e0", "6.5", 3, "expected an integer, got '6.5'"),
        ("a1", "pi0^x", 4, "cannot parse field element 'pi0^x'"),
        ("mu", "pi1^-1", 5, "cannot parse field element 'pi1^-1'"),
        ("precision", "abc", 6, "expected an integer, got 'abc'"),
        ("format", "xml", 7, "unknown output format 'xml'"),
    ])
    def test_bad_value_names_file_line_and_key(self, tmp_path, capsys, key,
                                               value, lineno, message):
        # a bad integer used to surface as int()'s own message, and a bad
        # monomial or format without the file or line it came from
        path = tmp_path / "bad.cfg"
        lines = EXAMPLE_CFG.splitlines() + ["precision = 120", "format = text"]
        path.write_text("".join(
            f"{key} = {value}\n" if line.startswith(f"{key} =") else line + "\n"
            for line in lines))
        assert main(["validate", "--config", str(path), "--json"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert (f"{path}:{lineno}: bad value for key {key!r}: {message}"
                in captured.err)
        assert captured.out == ""

    def test_config_that_is_not_utf8_names_file_and_line(self, tmp_path,
                                                         capsys):
        # the decoder's own message used to surface without the file
        path = tmp_path / "latin1.cfg"
        path.write_bytes(EXAMPLE_CFG.encode() + b"# caf\xe9\n")
        assert main(["validate", "--config", str(path), "--json"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        lineno = len(EXAMPLE_CFG.splitlines()) + 1
        assert f"{path}:{lineno}: not UTF-8 text: " in captured.err
        assert "0xe9" in captured.err
        assert captured.out == ""

    def test_negative_sample_rejected(self, example_cfg, capsys):
        rc = main(["audit", "--config", example_cfg, "--sample", "-3", "--json"])
        assert rc == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "--sample must be nonnegative" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["analyze", "audit", "validate"])
    @pytest.mark.parametrize("value", ["-1", "-2"])
    def test_negative_guard_digits_rejected(self, example_cfg, capsys,
                                            command, value):
        rc = main([command, "--config", example_cfg, "--guard-digits", value,
                   "--json"])
        assert rc == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"--guard-digits must be nonnegative, got {value}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("config, command", [
        pytest.param(cfg, cmd, id=f"p{cfg[0]}-{cmd}")
        for cfg, cmds in [((2, 8, 1, 6, 27), ("validate", "analyze", "audit")),
                          ((3, 8, 1, 3, 62), ("validate", "analyze", "audit")),
                          ((5, 10, 1, 2, 224), ("validate", "analyze"))]
        for cmd in cmds])
    def test_config_past_the_former_depth_cap_gets_a_report(self, tmp_path,
                                                            capsys, config,
                                                            command):
        # these pass both choices and fail the freeness bound, with a depth
        # of at least (p^2+1)/(p^2+p)*p^2*e0, which only a failing bound
        # allows: they are reported like any other config the bound fails
        p, e0, b1, m, depth = config
        path = tmp_path / "deep.cfg"
        path.write_text(f"p = {p}\ne0 = {e0}\na1 = pi0^-{b1}\nmu = pi0^-{m}\n")
        argv = [command, "--config", str(path), "--json"]
        if command == "audit":
            argv += ["--sample", "3"]
        rc = main(argv)
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        if command == "validate":
            assert rc == EXIT_VALIDATION
            assert [b["passed"] for b in report["choices"]] == [True, True]
            assert report["freeness_bound"]["holds"] is False
            assert report["ramification"]["depth_v2"] == depth
            assert (p * p + p) * depth >= (p * p + 1) * p * p * e0
        elif command == "analyze":
            assert rc == EXIT_OK
            assert report["module_structure"]["free"] is None
        else:
            assert rc == EXIT_OK
            assert report["passed"] is True
