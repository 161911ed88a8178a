"""CLI exit codes, determinism, and output equality."""

import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from falin.cli import run
from falin.errors import InternalInvariant

EX_A = """rank 2
action
z1 -> t1*z1
z2 -> t2*z2 + (t2 - t1^2)*z1^2
end
"""

BAD_ACTION = "rank 1\naction\nz1 -> t1*z1 + 1\nend\n"

NOT_EFFECTIVE = """rank 2
action
z1 -> t1*z1
z2 -> t1*z2 + (t1 - t1^2)*z1^2
end
"""

EX_A_REPORT = ('{"rank":2,"effective":true,"fixed_point":["0","0"],'
               '"base_change":[["1","0"],["0","1"]],"weights":[[1,0],[0,1]],'
               '"beta":{"z1":"z1","z2":"z2 + z1^2"},'
               '"beta_inverse":{"z1":"z1","z2":"z2 - z1^2"},'
               '"degree":2,"verified":true}')

# SHA-256 of the .act, .alpha.map and .weights.json files that
# `generate --rank 2 --allow-singular` writes at seeds whose first weight draw
# is singular, computed by the code whose CorpusSpec could also plant a weight
# matrix; --allow-singular is the only way to generate a singular one
ALLOW_SINGULAR_DIGESTS = {
    "0": ("eed81192aa012ba82a0d466f9fcb1cf6b98b61276a604afa730c15eb43ec4b10",
          "f41178932d092007ee3db991176a470b3b00cba5970397387f877d0d6b6d6460",
          "478668d73df9c03411c64bfb3ef984aa0ddcc0db9c0541fe913cd72c9c7a3032"),
    "2": ("0ea704e3dd7f95f0d294a76aabd8a3d3b1ba863b8c3894acd9934eca21827f15",
          "0ba93f36ec8585eee903ec6e2b16aa0a22244feb69304bdad79eeef60f5f8243",
          "25ca2b3bab8b547a00c97fbb90e2309b7a8b09f877e60950b1ed33a074bd87d6"),
}


@pytest.fixture
def ex_a_file(tmp_path):
    path = tmp_path / "exA.act"
    path.write_text(EX_A)
    return str(path)


class TestLinearize:
    def test_ex_a_stdout(self, ex_a_file, capsys):
        assert run(["linearize", ex_a_file]) == 0
        assert capsys.readouterr().out == EX_A_REPORT + "\n"

    def test_out_file_matches_stdout(self, ex_a_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["linearize", ex_a_file, "--out", str(out)]) == 0
        stdout_run = run(["linearize", ex_a_file])
        captured = capsys.readouterr().out
        assert stdout_run == 0
        assert out.read_text() == captured

    def test_not_effective_exits_2_with_partial_report(self, tmp_path, capsys):
        path = tmp_path / "sing.act"
        path.write_text(NOT_EFFECTIVE)
        assert run(["linearize", str(path)]) == 2
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["effective"] is False
        assert data["weights"] == [[1, 0], [1, 0]]
        assert "beta" not in data
        assert "not effective" in captured.err

    def test_axioms_failure_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.act"
        path.write_text(BAD_ACTION)
        assert run(["linearize", str(path)]) == 2
        assert "axioms fail" in capsys.readouterr().err

    def test_max_degree_flag(self, ex_a_file, capsys):
        assert run(["linearize", ex_a_file, "--max-degree", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["degree"] == 4 and data["verified"] is True


class TestInvertMaxDegree:
    def test_bound_too_small_then_large_enough(self, tmp_path, capsys):
        path = tmp_path / "m.map"
        # a shear composed with an elementary map; the inverse has degree 2
        path.write_text(
            "rank 2\nmap\nz1 -> z1 - 3*z2 - 3*z1^2\nz2 -> z2 + z1^2\nend\n")
        assert run(["invert", str(path), "--max-degree", "1"]) == 2
        capsys.readouterr()
        assert run(["invert", str(path), "--max-degree", "2"]) == 0
        out = capsys.readouterr().out
        from falin import parse, compose, identity_map
        inverse = parse(out).to_map()
        original = parse(path.read_text()).to_map()
        assert compose(inverse, original) == identity_map(2)


class TestCheck:
    def test_good_action(self, ex_a_file, capsys):
        assert run(["check", ex_a_file]) == 0
        assert "axioms hold" in capsys.readouterr().out

    def test_bad_action_witness(self, tmp_path, capsys):
        path = tmp_path / "bad.act"
        path.write_text(BAD_ACTION)
        assert run(["check", str(path)]) == 2
        out = capsys.readouterr().out
        assert "compatibility" in out
        assert "z1" in out
        # the hand computation: got t1 + 1 where 1 was expected
        assert "1 + t1" in out and "expected: 1" in out

    def test_map_document_rejected(self, tmp_path, capsys):
        path = tmp_path / "m.map"
        path.write_text("rank 1\nmap\nz1 -> z1\nend\n")
        assert run(["check", str(path)]) == 1


EX_A_BETA = "rank 2\nmap\nz1 -> z1\nz2 -> z2 + z1^2\nend\n"
SHIFTED_MAP = "rank 2\nmap\nz1 -> z1 + 1/2\nz2 -> z2 + z1^2\nend\n"


class TestInvertComposeAbelianize:
    @pytest.mark.parametrize("doc, inverse", [
        (EX_A_BETA, "rank 2\nmap\nz1 -> z1\nz2 -> z2 - z1^2\nend\n"),
        # a constant part is removed by a translation first
        ("rank 1\nmap\nz1 -> 2*z1 + 1\nend\n",
         "rank 1\nmap\nz1 -> -1/2 + 1/2*z1\nend\n"),
        (SHIFTED_MAP,
         "rank 2\nmap\nz1 -> -1/2 + z1\nz2 -> -1/4 + z1 + z2 - z1^2\nend\n"),
        # the alpha of generate --rank 1 --seed 0 is its own inverse
        ("rank 1\nmap\nz1 -> -1 - z1\nend\n",
         "rank 1\nmap\nz1 -> -1 - z1\nend\n"),
    ], ids=["quadratic", "affine-rank-1", "affine-quadratic", "generated-rank-1"])
    def test_invert(self, tmp_path, capsys, doc, inverse):
        path = tmp_path / "m.map"
        path.write_text(doc)
        assert run(["invert", str(path)]) == 0
        assert capsys.readouterr().out == inverse

    def test_invert_singular_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.map"
        path.write_text("rank 2\nmap\nz1 -> z1\nz2 -> z1\nend\n")
        assert run(["invert", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "SingularMatrix: matrix is singular\n"

    def test_invert_nonpolynomial_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.map"
        path.write_text("rank 1\nmap\nz1 -> z1 + z1^2\nend\n")
        assert run(["invert", str(path)]) == 2

    @pytest.mark.parametrize("left_doc, right_doc, composed", [
        (EX_A_BETA, "rank 2\nmap\nz1 -> z1\nz2 -> z2 - z1^2\nend\n",
         "rank 2\nmap\nz1 -> z1\nz2 -> z2\nend\n"),
        # a map with a rational constant part after EX_A
        (SHIFTED_MAP, EX_A,
         "rank 2\naction\nz1 -> 1/2*t1 + t1*z1\n"
         "z2 -> (1/4*t2 - 1/4*t1^2) + (t2 - t1^2)*z1 + t2*z2"
         " + (2*t2 - t1^2)*z1^2\nend\n"),
    ], ids=["map-after-map", "map-after-action"])
    def test_compose_left_after_right(self, tmp_path, capsys, left_doc,
                                      right_doc, composed):
        left = tmp_path / "left.map"
        left.write_text(left_doc)
        right = tmp_path / "right.map"
        right.write_text(right_doc)
        assert run(["compose", str(left), str(right)]) == 0
        assert capsys.readouterr().out == composed

    def test_compose_long_word(self, tmp_path, capsys):
        # 2,000 letters, well past Python's default recursion limit
        left = tmp_path / "left.map"
        left.write_text("rank 1\nmap\nz1 -> 2*z1\nend\n")
        right = tmp_path / "right.map"
        right.write_text("rank 1\nmap\nz1 -> z1^2000\nend\n")
        assert run(["compose", str(left), str(right)]) == 0
        assert capsys.readouterr().out == (
            f"rank 1\nmap\nz1 -> {2 ** 2000}*z1^2000\nend\n")

    def test_compose_rank_mismatch_exits_1(self, tmp_path, capsys):
        a = tmp_path / "a.map"
        a.write_text("rank 1\nmap\nz1 -> z1\nend\n")
        b = tmp_path / "b.map"
        b.write_text("rank 2\nmap\nz1 -> z1\nz2 -> z2\nend\n")
        assert run(["compose", str(a), str(b)]) == 1

    def test_abelianize_sorts_words(self, tmp_path, capsys):
        path = tmp_path / "m.map"
        path.write_text("rank 2\nmap\nz1 -> z1\nz2 -> z2 + z2*z1 - z1*z2\nend\n")
        assert run(["abelianize", str(path)]) == 0
        assert capsys.readouterr().out == "rank 2\nmap\nz1 -> z1\nz2 -> z2\nend\n"


class TestGenerate:
    def test_deterministic_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["generate", "--rank", "2", "--seed", "42", "--elementary", "2",
                "--degree", "2", "--weight-bound", "3"]
        assert run(argv) == 0
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert run(argv) == 0
        second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert first == second
        names = sorted(first)
        assert names == ["action_r2_s42.act", "action_r2_s42.alpha.map",
                         "action_r2_s42.weights.json"]

    def test_generated_action_linearizes(self, tmp_path, capsys):
        prefix = str(tmp_path / "case")
        assert run(["generate", "--rank", "2", "--seed", "1", "--out", prefix]) == 0
        capsys.readouterr()
        assert run(["linearize", prefix + ".act"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verified"] is True
        weights = json.loads((tmp_path / "case.weights.json").read_text())
        assert sorted(map(tuple, data["weights"])) == sorted(map(tuple, weights))

    @pytest.mark.parametrize("flag, value", [
        ("--rank", "0"), ("--degree", "0"), ("--weight-bound", "-1"),
        ("--elementary", "-1")])
    def test_out_of_range_bound_is_usage_error(self, flag, value, tmp_path,
                                               capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["generate", "--rank", "2", "--seed", "1"]
        assert run(argv + [flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and flag in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", sorted(ALLOW_SINGULAR_DIGESTS))
    def test_allow_singular_writes_a_non_effective_action(
            self, seed, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["generate", "--rank", "2", "--seed", seed, "--allow-singular",
                "--out", "sing"]
        assert run(argv) == 0
        names = ["sing.act", "sing.alpha.map", "sing.weights.json"]
        assert capsys.readouterr().out == "".join(f"{n}\n" for n in names)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
        assert tuple(hashlib.sha256((tmp_path / n).read_bytes()).hexdigest()
                     for n in names) == ALLOW_SINGULAR_DIGESTS[seed]
        weights = (tmp_path / "sing.weights.json").read_text()
        (a, b), (c, d) = json.loads(weights)
        assert a * d - b * c == 0
        assert run(["linearize", "sing.act"]) == 2
        assert '"effective":false' in capsys.readouterr().out

    def test_redraws_exhausted_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["generate", "--rank", "3", "--seed", "0", "--elementary", "6",
                "--degree", "4"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("DegreeBlowupExceeded: map exceeds the corpus "
                                "cap (degree 12, 400 terms)\n")
        assert list(tmp_path.iterdir()) == []


class TestUsageErrors:
    def test_missing_file(self, capsys):
        assert run(["check", "/nonexistent/file.act"]) == 1
        assert "io error" in capsys.readouterr().err

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "utf16.act"
        path.write_bytes(EX_A.encode("utf-16"))  # starts with \xff\xfe
        assert run(["linearize", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"io error: {path}: not valid UTF-8\n"

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.act"
        path.write_text("rank 1\naction\nz1 -> z9\nend\n")
        assert run(["check", str(path)]) == 1
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", ["z1^50000000", "(z1 + z2)^40",
                                      "(z1 + z2)^10*(z1 + z2)^10",
                                      "(t1 + t2 + 1)^60"],
                             ids=["word_length", "power_products",
                                  "product_products", "laurent_power"])
    def test_oversized_expansion_is_parse_error(self, expr, tmp_path, capsys):
        path = tmp_path / "big.act"
        path.write_text(f"rank 2\naction\nz1 -> {expr}\nz2 -> t2*z2\nend\n")
        assert run(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("parse error: 3:") and err.count("\n") == 1

    @pytest.mark.parametrize("binding", [
        "z1 -> t1*z1 + \u00b2",
        "z1 -> t1*z1 + " + "1" * 5000,
        "z1 -> t1*z1 + \u0663",
        "z\u0661 -> t1*z1",
        "z1 -> t1*z1 + (10)^5000",
    ], ids=["superscript_digit", "long_numeral", "arabic_digit",
            "arabic_index", "oversized_scalar"])
    def test_unreadable_scalar_is_parse_error(self, binding, tmp_path, capsys):
        # each once ended in a ValueError traceback or was misread
        path = tmp_path / "doc.act"
        path.write_text(f"rank 1\naction\n{binding}\nend\n", encoding="utf-8")
        assert run(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (captured.err.startswith("parse error: 3:")
                and captured.err.count("\n") == 1)

    @pytest.mark.parametrize("command", ["check", "linearize"])
    def test_oversized_sum_is_parse_error(self, command, tmp_path, capsys):
        # once a ValueError traceback: six 1,000-digit denominators summed
        # into a constant of about 6,000 digits
        p = 10 ** 999
        path = tmp_path / "sum.act"
        path.write_text("rank 1\naction\nz1 -> t1*z1"
                        + "".join(f" + 1/{p + k}" for k in range(6)) + "\nend\n")
        assert run([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (captured.err.startswith("parse error: 3:")
                and captured.err.count("\n") == 1)
        assert "Traceback" not in captured.err

    def test_rank_beyond_the_document_is_parse_error(self, tmp_path, capsys):
        # once a MemoryError traceback: the parser built a tuple of rank
        # t-exponents before reading a binding
        path = tmp_path / "rank.act"
        path.write_text("rank 100000000000\naction\nz1 -> t1*z1\nend\n")
        assert run(["linearize", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("parse error: 1:6: rank 100000000000 is more "
                                "than a document of 41 characters can bind\n")

    def test_deep_nesting_is_parse_error(self, tmp_path, capsys):
        # deep enough to exhaust the interpreter stack without the limit
        path = tmp_path / "deep.act"
        path.write_text("rank 1\naction\nz1 -> " + "(" * 300 + "t1*z1"
                        + ")" * 300 + "\nend\n")
        assert run(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (captured.err.startswith("parse error: 3:")
                and captured.err.count("\n") == 1)

    @pytest.mark.parametrize("command, text", [
        ("linearize", EX_A), ("invert", "rank 1\nmap\nz1 -> z1\nend\n")],
        ids=["linearize", "invert"])
    def test_max_degree_below_one_is_usage_error(self, command, text, tmp_path,
                                                 capsys):
        # once exit 2 with NotPolynomialInverseWithinBound, after linearize
        # had checked the axioms
        path = tmp_path / "doc.txt"
        path.write_text(text)
        assert run([command, str(path), "--max-degree", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{command}: --max-degree must be at least 1\n"

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, ex_a_file, capsys):
        assert run(["check", "--frob", ex_a_file]) == 1

    def test_no_command(self, capsys):
        assert run([]) == 1

    def test_internal_error_exits_3(self, ex_a_file, capsys, monkeypatch):
        import falin.cli as cli_mod

        def boom(*args, **kwargs):
            raise InternalInvariant("forced")

        monkeypatch.setattr(cli_mod, "linearize", boom)
        assert run(["linearize", ex_a_file]) == 3


@st.composite
def small_documents(draw):
    """A map or action document of rank <= 3: each image has <= 3 terms,
    each word <= 2 letters, and each t-power lies in -1..2."""
    rank = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["action", "map"]))
    scalar = st.sampled_from(["1", "2", "1/2", "3/4"])
    word = st.lists(st.integers(1, rank).map("z{}".format), max_size=2)
    t_powers = st.just([])
    if kind == "action":
        t_powers = st.lists(st.integers(-1, 2), min_size=rank,
                            max_size=rank).map(lambda exps: [
                                f"t{k}^{e}" for k, e in enumerate(exps, 1) if e])
    term = st.tuples(st.sampled_from(["+", "-"]), scalar, t_powers, word).map(
        lambda t: f"{t[0]} " + "*".join([t[1], *t[2], *t[3]]))
    image = st.lists(term, min_size=1, max_size=3).map(
        lambda terms: " ".join(terms).removeprefix("+ "))
    images = draw(st.lists(image, min_size=rank, max_size=rank))
    return "\n".join([f"rank {rank}", kind,
                      *(f"z{i} -> {img}" for i, img in enumerate(images, 1)),
                      "end", ""])


class TestSmallDocuments:
    @settings(max_examples=100, deadline=None)
    @given(small_documents())
    def test_every_command_exits_with_a_documented_code(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "small.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            for argv in (["check", path], ["linearize", path],
                         ["invert", path], ["compose", path, path],
                         ["abelianize", path]):
                assert run(argv) in (0, 1, 2), (argv[0], text)
