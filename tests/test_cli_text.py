"""The CLI's bulk text writers and readers against their per-value loops.

The loops below are the writers and readers the CLI had before it
formatted and parsed whole blocks at once; they stay here as the
reference.  A writer's parts, joined, must give the same text, a reader
the same values or the same ParseError (message and context), whatever
the part and chunk sizes.  A reader takes the path of a file, so each
text is written to a file byte for byte; the reference loop takes the
text itself.
"""

import hashlib
import math
import os
import tempfile
import threading
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import scipy.sparse
from hypothesis import given, settings, strategies as st

from wavefield import cli, fock
from wavefield.errors import ParseError, ShapeError, WavefieldError
from wavefield.flow import MAX_FLOW_DIM
from wavefield.transform import CoeffPyramid, CoeffVector

# ---------------------------------------------------------------- reference


def fmt_loop(x):
    return "%.17g" % float(x)


def csv_loop(header, rows):
    lines = [header]
    lines += [",".join(str(v) if isinstance(v, (int, str)) else fmt_loop(v)
                       for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def values_loop(values):
    return "\n".join(fmt_loop(v) for v in values) + "\n"


def pyramid_loop(p, order):
    lines = [
        "# wavefield-pyramid 1",
        f"# order {order} levels {p.levels} length "
        f"{len(p.coarse) * 2 ** p.levels}",
        f"# coarse scale {p.coarse.scale} length {len(p.coarse)}",
    ]
    lines += [fmt_loop(v) for v in p.coarse.values]
    for i, d in enumerate(p.details, 1):
        lines.append(f"# detail {i} scale {d.scale} length {len(d)}")
        lines += [fmt_loop(v) for v in d.values]
    return "\n".join(lines) + "\n"


def coo_text_loop(mat):
    coo = mat.tocsr().sorted_indices().tocoo()
    lines = [f"{coo.shape[0]} {coo.nnz}"]
    lines += [f"{r} {c} {fmt_loop(v)}"
              for r, c, v in zip(coo.row, coo.col, coo.data)]
    return "\n".join(lines) + "\n"


# each loop notes the line of its first nan or inf as it reads, and
# refuses it once every other check has passed

def refuse_nonfinite(line, path):
    if line is not None:
        raise ParseError("non-finite value in input", path=path, line=line)


def parse_plain_loop(text, path):
    vals, nonfinite = [], None
    for ln, raw in enumerate(text.splitlines(), 1):
        s = raw.strip()
        if not s:
            continue
        try:
            vals.append(float(s))
        except ValueError:
            raise ParseError("non-numeric value in input", path=path, line=ln)
        if nonfinite is None and not math.isfinite(vals[-1]):
            nonfinite = ln
    if not vals:
        raise ParseError("empty input", path=path)
    refuse_nonfinite(nonfinite, path)
    return np.array(vals)


def parse_pyramid_loop(text, path):
    heads = []
    vals, nonfinite = [], None
    for ln, s in enumerate(map(str.strip, text.splitlines()), 1):
        if not s:
            continue
        if s[0] == "#":
            heads.append((ln, s, len(vals)))
        elif len(heads) < 3:
            raise ParseError("values before any block header", path=path,
                             line=ln)
        else:
            try:
                vals.append(float(s))
            except ValueError:
                raise ParseError("non-numeric pyramid value", path=path,
                                 line=ln)
            if nonfinite is None and not math.isfinite(vals[-1]):
                nonfinite = ln
    if len(heads) < 2 or heads[0][1] != "# wavefield-pyramid 1":
        raise ParseError("missing pyramid header", path=path)
    meta = cli._PYRAMID_META.fullmatch(heads[1][1])
    if meta is None:
        raise ParseError("malformed pyramid metadata", path=path,
                         line=heads[1][0])
    order, levels, length = map(int, meta.groups())
    if len(heads) - 2 != levels + 1:
        raise ParseError(
            f"expected {levels + 1} blocks, found {len(heads) - 2}", path=path
        )
    refuse_nonfinite(nonfinite, path)
    vals = np.array(vals)
    ends = [first for *_, first in heads[3:]] + [len(vals)]
    vecs = []
    for i, ((ln, s, first), end) in enumerate(zip(heads[2:], ends)):
        name = f"detail {i}" if i else "coarse"
        block = cli._PYRAMID_BLOCK.fullmatch(s)
        if block is None or block[1] != name:
            raise ParseError(f"expected a '# {name} scale S length N' "
                             "block header", path=path, line=ln)
        if end - first != int(block[3]):
            raise ParseError("block length disagrees with its values",
                             path=path, line=ln, length=int(block[3]),
                             values=end - first)
        vecs.append(CoeffVector(int(block[2]), vals[first:end]))
    if len(vals) != length:
        raise ParseError("pyramid length disagrees with its values", path=path,
                         line=heads[1][0], length=length, values=len(vals))
    return order, CoeffPyramid(vecs[0], tuple(vecs[1:]))


def parse_coo_loop(text, path):
    lines = [(ln, s) for ln, s in enumerate(map(str.strip, text.splitlines()), 1)
             if s]
    if not lines:
        raise ParseError("empty matrix file", path=path)
    head_line, head = lines[0]
    try:
        dim, nnz = map(int, head.split())
    except ValueError:
        raise ParseError("matrix header must be 'dim nnz'", path=path,
                         line=head_line)
    if dim < 0 or nnz < 0:
        raise ParseError("matrix header counts must be nonnegative",
                         path=path, line=head_line)
    if dim > MAX_FLOW_DIM:
        raise ShapeError(f"flow matrices are capped at {MAX_FLOW_DIM}",
                         dim=dim)
    if len(lines) - 1 != nnz:
        raise ParseError(
            f"expected {nnz} entries, found {len(lines) - 1}", path=path
        )
    rows, cols, vals, nonfinite = [], [], [], None
    for ln, s in lines[1:]:
        try:
            r, c, v = s.split()
            r, c, v = int(r), int(c), float(v)
        except ValueError:
            raise ParseError("matrix entries are 'row col value'", path=path,
                             line=ln)
        if not (0 <= r < dim and 0 <= c < dim):
            raise ParseError("matrix index out of range", path=path, line=ln)
        if nonfinite is None and not math.isfinite(v):
            nonfinite = ln
        rows.append(r)
        cols.append(c)
        vals.append(v)
    refuse_nonfinite(nonfinite, path)
    mat = np.zeros((dim, dim))
    with np.errstate(over="ignore"):
        np.add.at(mat, (np.array(rows, np.int64), np.array(cols, np.int64)),
                  np.array(vals))
    return mat


# ---------------------------------------------------------------- inputs

# signed zero, subnormals, the ends of the range and integral values
# from 1e17 on, where %.17g switches to an exponent
EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308, 1e17, -1e17,
               123456789012345678.0, 2.0**70, 0.1, -1.5)
finite = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))


def float_arrays(min_size=1, max_size=40):
    return st.lists(finite, min_size=min_size, max_size=max_size).map(np.array)


def pyramids():
    """A pyramid of 0..3 levels on a coarse block of 1, 2 or 4 values."""
    def build(shape):
        c, levels = shape
        sizes = [c] + [c * 2 ** (levels - 1 - i) for i in range(levels)]
        return st.tuples(*(st.lists(finite, min_size=s, max_size=s)
                           for s in sizes)).map(
            lambda blocks: CoeffPyramid(
                CoeffVector(-levels, blocks[0]),
                tuple(CoeffVector(-levels + (levels - i), b)
                      for i, b in enumerate(blocks[1:], 1))))
    return st.tuples(st.sampled_from((1, 2, 4)), st.integers(0, 3)).flatmap(build)


# every line boundary of str.splitlines; a reader cuts its chunks just
# after a '\n', so each of these must survive sitting at or beside a cut
TERMINATORS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029")
# bytes per reader read: 1 to 64 cut nearly every line, 2**16 is the
# CLI's own
chunk_chars = st.one_of(st.integers(1, 64), st.just(2**16))
# characters of two, three and four UTF-8 bytes, which a read of a few
# bytes cuts inside
WIDE = ("\xe9", "\u20ac", "\U0001d11e")


@st.composite
def dressed(draw, lines, corruptions=(), ends=("\n", "\n", "\r\n")):
    """lines as a file: each line padded with blanks or tabs, ended by one
    of ends, blank or whitespace-only lines between them, and at most one
    line replaced by, or preceded by, one of corruptions."""
    lines = list(lines)
    if corruptions and draw(st.booleans()):
        at = draw(st.integers(0, len(lines)))
        bad = draw(st.sampled_from(corruptions))
        if at < len(lines) and draw(st.booleans()):
            lines[at] = bad
        else:
            lines.insert(at, bad)
    pad = st.sampled_from(("", "", " ", "\t", "  "))
    out = []
    for s in lines:
        if draw(st.integers(0, 5)) == 0:
            out.append(draw(pad) + draw(st.sampled_from(ends)))
        out.append(draw(pad) + s + draw(pad) + draw(st.sampled_from(ends)))
    text = "".join(out)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@contextmanager
def text_file(text):
    """Path of a temporary file holding text as UTF-8, its line ends
    written as they are."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "in.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        yield path


def same_outcome(new, old, text):
    """new(path) on a file holding text and old(text, path) return equal
    values or raise the same error."""
    with text_file(text) as path:
        try:
            want = old(text, path)
        except WavefieldError as e:
            try:
                new(path)
            except WavefieldError as f:
                assert ((type(f), str(f), f.context)
                        == (type(e), str(e), e.context))
                return None
            raise AssertionError(f"accepted what the loop refuses: {e}")
        return want, new(path)


# ---------------------------------------------------------------- writers

# lines per writer part: 1 and 2 cut every block, 2**12 is the CLI's own
part_lines = st.sampled_from((1, 2, 3, 5, 2**12))


def joined(parts, most=None):
    """The parts as one string, each checked to hold at most `most` lines
    when `most` is given."""
    parts = list(parts)
    if most is not None:
        assert all(p.count("\n") <= most for p in parts)
    return "".join(parts)


@settings(max_examples=60, deadline=None)
@given(a=float_arrays(), most=part_lines)
def test_values_text_matches_loop(a, most):
    with mock.patch.object(cli, "_PART_LINES", most):
        assert joined(cli._values(a), most) == values_loop(a)


@settings(max_examples=60, deadline=None)
@given(p=pyramids(), order=st.integers(1, 12), most=part_lines)
def test_pyramid_text_matches_loop(p, order, most):
    with mock.patch.object(cli, "_PART_LINES", most):
        got = joined(cli._serialize_pyramid(p, order), most)
    assert got == pyramid_loop(p, order)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 8), most=part_lines, data=st.data())
def test_coo_text_matches_loop(dim, most, data):
    # a Hamiltonian dump writes the entries of its stored half: a symmetric
    # matrix from the drawn upper triangle, whole rows possibly empty
    dense = np.array(data.draw(st.lists(st.one_of(st.just(0.0), finite),
                                        min_size=dim * dim, max_size=dim * dim)))
    upper = np.triu(dense.reshape(dim, dim))
    mat = scipy.sparse.csr_matrix(upper + np.triu(upper, 1).T)
    strict = scipy.sparse.csr_matrix(np.triu(upper, 1))
    entries = fock._entries(fock._Half(np.diag(upper) + 0.0, strict.data,
                                       strict.indices, strict.indptr))
    with mock.patch.object(cli, "_PART_LINES", most):
        assert joined(cli._coo_text(dim, *entries), most) == coo_text_loop(mat)


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 8), most=part_lines, data=st.data())
def test_dense_coo_text_matches_sparse_path(dim, most, data):
    # the flow output's former path, the stored entries of
    # scipy.sparse.csr_matrix of the dense matrix, is the reference: exact
    # zeros of either sign are left out, and whole rows may be empty
    entry = st.one_of(st.just(0.0), st.just(-0.0), finite)
    dense = np.array(data.draw(st.lists(entry, min_size=dim * dim,
                                        max_size=dim * dim))).reshape(dim, dim)
    for row in data.draw(st.sets(st.integers(0, dim - 1))):
        dense[row] = data.draw(st.sampled_from((0.0, -0.0)))
    ref = coo_text_loop(scipy.sparse.csr_matrix(dense))
    with mock.patch.object(cli, "_PART_LINES", most):
        assert joined(cli._dense_coo_text(dense), most) == ref


COLUMNS = {
    "int": st.one_of(st.integers(), st.booleans()),
    "str": st.text(max_size=5),
    "float": finite,
    "numpy-int": st.integers(-2**63, 2**63 - 1).map(np.int64),
    "numpy-float": finite.map(np.float64),
    # the flow log's lambda column starts at the state's lambda, which a
    # library caller may pass as an int
    "mixed": st.one_of(st.integers(-10**20, 10**20), finite),
}


@settings(max_examples=50, deadline=None)
@given(kinds=st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=4),
       n=st.integers(0, 12), array_columns=st.booleans(), most=part_lines,
       data=st.data())
def test_csv_matches_loop(kinds, n, array_columns, most, data):
    columns = [data.draw(st.lists(COLUMNS[k], min_size=n, max_size=n))
               for k in kinds]
    if array_columns:
        # float columns as the arrays scalfun and filters pass
        columns = [np.array(col, dtype=float) if k == "float" else col
                   for k, col in zip(kinds, columns)]
    header = ",".join(kinds)
    # a str column may hold a newline, so the lines of a part go unchecked
    with mock.patch.object(cli, "_PART_LINES", most):
        got = joined(cli._csv(header, *columns))
    assert got == csv_loop(header, zip(*columns))


# ---------------------------------------------------------------- readers

PLAIN_CORRUPTIONS = ("x", "1 2", "1,5", "nan", "-inf", "1e999", "#1", "0x1")


def line_pieces(path, size, digest=None):
    with mock.patch.object(cli, "_CHUNK_CHARS", size):
        pieces = list(cli._line_chunks(path, digest))
    starts = np.cumsum([1] + [len(lines) for _, lines in pieces])
    assert [first for first, _ in pieces] == starts[:-1].tolist()
    assert all(lines for _, lines in pieces)
    return [ln for _, lines in pieces for ln in lines]


@settings(max_examples=200, deadline=None)
@given(text=st.lists(st.sampled_from(("1", " ", "#", *WIDE, *TERMINATORS)),
                     max_size=60).map("".join), size=st.integers(1, 64))
def test_line_chunks_join_to_splitlines(text, size):
    # the file is read in binary a few bytes at a time, so reads end inside
    # a multibyte character and between the '\r' and '\n' of a '\r\n'; the
    # pieces still join to the lines of the whole text, and the digest is
    # of every byte read
    digest = hashlib.sha256()
    with text_file(text) as path:
        assert line_pieces(path, size, digest) == text.splitlines()
    assert digest.hexdigest() == hashlib.sha256(text.encode()).hexdigest()


def test_line_chunks_cut_anywhere():
    # every read size, so each byte boundary is a read's end once
    text = "1\r\n\xe9\r\r\n2\r\u2028\U0001d11e\x85\r\n\n3\r"
    with text_file(text) as path:
        for size in range(1, len(text.encode()) + 1):
            assert line_pieces(path, size) == text.splitlines(), size


def refused_line(raw, size):
    """The line that _line_chunks names when it refuses the bytes raw,
    which are no UTF-8, read size bytes at a time."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "in.txt")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            line_pieces(path, size)
        except ParseError as e:
            assert str(e) == "input is not UTF-8 text"
            assert e.context.keys() == {"path", "line"}
            assert e.context["path"] == path
            return e.context["line"]
    raise AssertionError("accepted bytes that are no UTF-8")


def test_truncated_last_character_names_last_line():
    # a file ending in the first byte of a two-byte character
    for size in (1, 2, 3, 7, 2**16):
        assert refused_line(b"1\r\n\xc3\xa9\n2\n1\xc3", size) == 4, size


# byte runs that are no UTF-8, each put where a character starts
UNDECODABLE = (b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xc3(", b"\xed\xa0\x80",
               b"\xf4\x90\x80\x80")


@settings(max_examples=200, deadline=None)
@given(chars=st.lists(st.sampled_from(("1", " ", *WIDE, *TERMINATORS)),
                      max_size=40), bad=st.sampled_from(UNDECODABLE),
       size=st.integers(1, 64), data=st.data())
def test_line_chunks_name_an_undecodable_line(chars, bad, size, data):
    # named as a rescan reading each bad byte as a lone surrogate would
    # name it: the line of the first
    at = data.draw(st.integers(0, len(chars)))
    raw = "".join(chars[:at]).encode() + bad + "".join(chars[at:]).encode()
    lines = raw.decode("utf-8", "surrogateescape").splitlines()
    want = next(ln for ln, s in enumerate(lines, 1)
                if any("\udc80" <= c <= "\udcff" for c in s))
    assert refused_line(raw, size) == want


@settings(max_examples=150, deadline=None)
@given(size=chunk_chars, ends=st.sampled_from((("\n", "\n", "\r\n"),
                                               ("\n", *TERMINATORS))),
       data=st.data())
def test_plain_reader_matches_loop(size, ends, data):
    a = data.draw(float_arrays(min_size=0))
    text = data.draw(dressed([repr(float(v)) for v in a], PLAIN_CORRUPTIONS,
                             ends))
    with mock.patch.object(cli, "_CHUNK_CHARS", size):
        both = same_outcome(cli._parse_plain_values, parse_plain_loop, text)
    if both:
        want, got = both
        assert got.tobytes() == want.tobytes()


PYRAMID_CORRUPTIONS = ("x", "1 1", "nan", "inf", "1#", "# junk",
                       "# detail 9 scale 0 length 1", "# coarse scale 0 length 1",
                       "# wavefield-pyramid 1", "0.5")


@settings(max_examples=150, deadline=None)
@given(p=pyramids(), order=st.integers(1, 12), size=chunk_chars,
       ends=st.sampled_from((("\n", "\n", "\r\n"), ("\n", *TERMINATORS))),
       data=st.data())
def test_pyramid_reader_matches_loop(p, order, size, ends, data):
    lines = pyramid_loop(p, order).splitlines()
    text = data.draw(dressed(lines, PYRAMID_CORRUPTIONS, ends))
    with mock.patch.object(cli, "_CHUNK_CHARS", size):
        both = same_outcome(cli._parse_pyramid, parse_pyramid_loop, text)
    if both:
        (order_want, want), (order_got, got) = both
        assert order_got == order_want
        for w, g in zip((want.coarse, *want.details), (got.coarse, *got.details),
                        strict=True):
            assert g.scale == w.scale
            assert g.values.tobytes() == w.values.tobytes()


@st.composite
def coo_files(draw):
    dim = draw(st.integers(0, 6))
    index = st.integers(0, max(dim - 1, 0))
    entries = draw(st.lists(st.tuples(index, index, finite), max_size=20))
    nnz = len(entries) + draw(st.sampled_from((0, 0, 0, 0, -1, 1)))
    lines = [f"{dim} {nnz}"] + [f"{r} {c} {v!r}" for r, c, v in entries]
    bad = ("0 0", "0 0 1 1", f"{dim} 0 1", f"0 {dim} 1", "-1 0 1", "0 x 1",
           "0 0 nan", "0.0 0 1", "0 0 1e308", "x 2")
    return draw(dressed(lines, bad))


@settings(max_examples=150, deadline=None)
@given(text=coo_files())
def test_coo_reader_matches_loop(text):
    both = same_outcome(cli._parse_coo, parse_coo_loop, text)
    if both:
        want, got = both
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(text=coo_files(), size=st.integers(1, 64))
def test_coo_reader_in_pieces_matches_loop(text, size):
    # pieces of a few characters put the header, a bad entry line and the
    # count past the first read
    with mock.patch.object(cli, "_CHUNK_CHARS", size):
        both = same_outcome(cli._parse_coo, parse_coo_loop, text)
    if both:
        want, got = both
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_readers_fill_one_read_only_array():
    # the values are parsed into one array, which the vectors take uncopied
    with mock.patch.object(cli, "_CHUNK_CHARS", 16):
        with text_file("".join(f"{v}\n" for v in range(64))) as path:
            vals = cli._parse_plain_values(path)
        p = CoeffPyramid(CoeffVector(-2, [1.0, 2.0]),
                         (CoeffVector(-1, np.arange(4.0)),
                          CoeffVector(-2, [3.0, 4.0])))
        with text_file(pyramid_loop(p, 1)) as path:
            _, got = cli._parse_pyramid(path)
    assert vals.tolist() == list(range(64)) and not vals.flags.writeable
    blocks = [got.coarse.values, *(d.values for d in got.details)]
    assert [b.tolist() for b in blocks] == [[1, 2], [0, 1, 2, 3], [3, 4]]
    assert not any(b.flags.writeable for b in blocks)
    assert all(np.shares_memory(blocks[0].base, b) for b in blocks)


# ---------------------------------------------------------------- memory

def traced_peak(argv):
    """tracemalloc's peak over one cli.run(argv), which must succeed."""
    tracemalloc.start()
    try:
        assert cli.run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dwt_text_memory_stays_bounded(tmp_path, monkeypatch):
    # a 2^18-value signal is a 5 MiB file.  Read and written in bounded
    # parts a run took near 15 (K=3) and 17 MiB (K=5), most of it the
    # whole-file str, a 2^20-character chunk's lines and the forward
    # step's window copy; read 2^16 characters at a time and stepped a
    # block of windows at a time, near 7 to 8 MiB, with the readers'
    # pieces, their concatenation and each vector's copy of its values.
    # Parsed into one array that the vectors take uncopied, the input
    # freed after the first step, 2^13-row window blocks and products
    # summed through one 2^13-value buffer, each run stays near 4.6 to 5.1
    monkeypatch.chdir(tmp_path)
    x = np.random.default_rng(18).standard_normal(2**18)
    (tmp_path / "x.csv").write_text("".join("%.17g\n" % v for v in x))
    for order in ("3", "5"):
        base = ["dwt", "--order", order, "--levels", "8"]
        assert cli.run(base + ["--input", "x.csv", "--direction", "forward",
                               "--output", "p.txt"]) == 0
        runs = [["--input", "x.csv", "--direction", "forward",
                 "--output", "q.txt"]]
        if order == "3":
            runs.append(["--input", "p.txt", "--direction", "inverse",
                         "--output", "y.csv"])
        for args in runs:
            peak = traced_peak(base + args)
            assert peak <= 5.5 * 2**20, (order, args, peak)
        assert (tmp_path / "q.txt").read_bytes() == (tmp_path / "p.txt").read_bytes()


def test_scalfun_text_memory_stays_bounded(tmp_path, monkeypatch):
    # 81921 rows of two float columns: the CSV writer formats each array
    # column a part of 2^12 rows at a time and the cascade adds each tap
    # over strided slices, near 2 MiB a run in all; parts of 2^14 rows and
    # the cascade's index arrays took it near 4, and a list of numpy
    # scalars made of each whole column first near 7
    monkeypatch.chdir(tmp_path)
    argv = ["scalfun", "--order", "3", "--level", "14"]
    assert cli.run(argv + ["--output", "warm.csv"]) == 0
    peak = traced_peak(argv + ["--output", "s.csv"])
    assert peak <= 2.5 * 2**20, peak


def test_coo_reader_memory_stays_bounded(tmp_path):
    # a dense 512^2 dump, the flow cap, is a 7 MiB file.  Streamed into
    # index and value arrays grown to 2^18 entries the reader peaks near
    # 6 MiB; the whole text, its lines and their fields took near 94
    mat = np.random.default_rng(512).standard_normal((512, 512))
    path = tmp_path / "h.coo"
    with open(path, "w", encoding="utf-8") as fh:
        cli._write_parts(fh, cli._dense_coo_text(mat))
    tracemalloc.start()
    try:
        got = cli._parse_coo(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == mat.tobytes()
    assert peak <= 16 * 2**20, peak


def test_coo_reader_reads_a_pipe(tmp_path):
    # a pipe has no size to go by: the entries are read all the same
    mat = np.random.default_rng(3).standard_normal((40, 40))
    path = tmp_path / "h.coo"
    with open(path, "w", encoding="utf-8") as fh:
        cli._write_parts(fh, cli._dense_coo_text(mat))
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(
        target=lambda: fifo.write_bytes(path.read_bytes()))
    writer.start()
    try:
        got = cli._parse_coo(str(fifo))
    finally:
        writer.join()
    assert got.tobytes() == cli._parse_coo(str(path)).tobytes()
    assert got.tobytes() == mat.tobytes()
