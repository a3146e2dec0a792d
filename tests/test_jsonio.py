import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from boltlab import jsonio
from oracles import loads, whole_loads

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)


def _same(a, b) -> bool:
    """Equality that also holds for NaN and tells -0.0 from 0.0."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
@example({"x": [-0.0, float("nan"), float("inf"), float("-inf")]})
def test_dumps_loads_round_trip(value):
    text = jsonio.dumps(value)
    assert _same(loads(text.encode()), value)
    assert jsonio.dumps(loads(text.encode())) == text


@settings(max_examples=100, deadline=None)
@given(st.integers(-(2**63), 2**63 - 1), st.floats(), st.floats(width=32), st.booleans())
def test_numpy_scalars_serialize_like_their_item(i, x, x32, b):
    for v in (np.int64(i), np.uint8(i % 256), np.float64(x), np.float32(x32), np.bool_(b)):
        assert jsonio.dumps([v]) == jsonio.dumps([v.item()])


def test_loads_restores_the_collector_and_keeps_its_error_kind():
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert loads('{"e": [["1f", 0.5, 0.0]]}'.encode()) == {"e": [["1f", 0.5, 0.0]]}
            assert gc.isenabled() is enabled
            for bad in ('{"e": [1, 2', "", "[1,]", "NaN1"):
                with pytest.raises(ValueError):
                    loads(bad.encode())
                assert gc.isenabled() is enabled
    finally:
        gc.enable()


KEYS = st.text(max_size=4) | st.integers(-3, 3) | st.floats() | st.booleans() | st.none()


@st.composite
def _shared_documents(draw):
    """A document built bottom-up: every new list, tuple or dict holds earlier
    values, so a value drawn twice is the same object in two places."""
    values = draw(st.lists(JSON_VALUES, min_size=1, max_size=4))
    for _ in range(draw(st.integers(1, 6))):
        picks = [values[i] for i in draw(st.lists(st.integers(0, len(values) - 1), max_size=5))]
        kind = draw(st.sampled_from([list, tuple, dict]))
        if kind is dict:
            values.append({draw(KEYS): v for v in picks})
        else:
            values.append(kind(picks))
    return values[-1]


@settings(max_examples=200, deadline=None)
@given(_shared_documents())
def test_dumps_of_shared_objects_is_one_stdlib_dumps(doc):
    assert jsonio.dumps(doc) == json.dumps(doc, separators=(",", ":"))


@settings(max_examples=100, deadline=None)
@given(_shared_documents())
def test_dump_streams_the_text_of_one_stdlib_dumps(doc):
    out = io.BytesIO()
    jsonio.dump(doc, out)
    assert out.getvalue() == json.dumps(doc, separators=(",", ":")).encode()


def test_dump_refuses_cycles_through_dicts_and_lists():
    for make in (lambda d: d.setdefault("a", [d]), lambda d: d.setdefault("a", {"b": [[d]]})):
        doc = {}
        make(doc)
        with pytest.raises(ValueError):
            jsonio.dump({"x": [1], "y": doc}, io.BytesIO())


@st.composite
def _repeating_texts(draw):
    """JSON text of a document whose lists repeat sibling elements, written with
    several separators and indents."""
    values = draw(st.lists(JSON_VALUES, min_size=1, max_size=3))
    runs = [[draw(st.sampled_from(values))] * draw(st.integers(1, 3))
            for _ in range(draw(st.integers(1, 3)))]
    inner = [x for run in runs for x in run]
    doc = draw(st.sampled_from([inner, {"registers": inner, "k": 2}, [inner, inner],
                                {"a": {"b": inner}}, [{"r": inner}] * 2]))
    separators = draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,\t", " :\n"), ("\r\n,", ":")]))
    return json.dumps(doc, separators=separators, indent=draw(st.sampled_from([None, 0, 2, "\t"])))


def _outcome(load, text):
    try:
        return "ok", load(text)
    except (ValueError, RecursionError) as err:
        return type(err), str(err)


def _same_outcome(text):
    got, want = _outcome(loads, text.encode()), _outcome(json.loads, text)
    assert got[0] == want[0] and (_same(got[1], want[1]) if got[0] == "ok" else got == want), text


@settings(max_examples=150, deadline=None)
@given(_repeating_texts())
def test_loads_of_repeated_siblings_is_json_loads(text):
    _same_outcome(text)


@settings(max_examples=150, deadline=None)
@given(_repeating_texts(), st.data())
def test_loads_of_broken_text_raises_json_loads_error(text, data):
    cut = data.draw(st.integers(0, len(text)))
    junk = data.draw(st.sampled_from(["", ",", "]", "]]", "}", "1", " x", "[", '"', ",]"]))
    broken = data.draw(st.sampled_from([text[:cut], text[:cut] + junk + text[cut:],
                                        text + junk, text[:cut] + text[cut + 1:]]))
    _same_outcome(broken)


EDGE_TEXTS = [
    "[1,12]", "[1,1 ]", "[1 ,1,1e5,1.5,-1,-1]", "[true,true ,trueish]", "[NaN,NaN,NaNa]",
    '["a","a","ab"]', '["a","a"b]', "[[1],[1],[1]2]", '{"r":[{"e":[1]},{"e":[1]},]}',
    '{"r":[{"e":[1]},{"e":[1]}]]}', '{"r":[{"e":[1]},{"e":[1]}]} x', '{"r":[[1],[1]]}}',
    '{"r":[[1],[1]], "r":[[2],[2]]}', "[[1],[1],", "[[1],[1]", "[{},{}]", "[[],[],[]]",
    " \n[ [1] , [1] ]\t", "﻿[[1],[1]]", "", "  ", "[[1],[1]]\x00",
    "[" * 3000 + "]" * 3000, '{"a":' * 3000 + "1" + "}" * 3000,
    # an entries array that json ends before the end rule's cut, and a key that only ends in entries
    '{"a":{"entries":[1,2],"x":[[3]]}}', '{"a":{"x\\"entries":[[1]]}}',
]


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_loads_takes_or_leaves_edge_texts_as_json_loads_does(text):
    for wrapped in (text, "[%s]" % text, '{"r":%s}' % text, '[{"r":%s}]' % text):
        _same_outcome(wrapped)  # lists at each depth


_TRICKY_ARRAYS = st.recursive(st.integers(0, 9) | st.text(']":{,', max_size=4),
                              lambda children: st.lists(children, max_size=3), max_leaves=8)
_TRICKY_KEYS = st.sampled_from(["entries", "x", 'x"entries', "entries,", '{"entries'])
_ENTRIES_DOCUMENTS = st.recursive(
    _TRICKY_ARRAYS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_TRICKY_KEYS, children, max_size=3),
    max_leaves=12)


def _spliced(v):
    """The value with each Text replaced by json.loads of its text."""
    if isinstance(v, jsonio.Text):
        return json.loads(b"".join(part[:] for part in v.parts))
    if isinstance(v, dict):
        return {k: _spliced(x) for k, x in v.items()}
    return [_spliced(x) for x in v] if isinstance(v, list) else v


@settings(max_examples=300, deadline=None)
@given(_ENTRIES_DOCUMENTS, st.sampled_from([(",", ":"), (", ", ":"), (",", ": ")]),
       st.sampled_from([None, 1]))
@example({"a": {"entries": [1, 2], "x": [[3]]}}, (",", ":"), None)
def test_loads_of_entries_at_any_depth_is_json_loads_up_to_texts(doc, separators, indent):
    """An array after an entries key is a Text only where its text is the array json reads."""
    text = json.dumps(doc, separators=separators, indent=indent)
    assert _same(_spliced(loads(text.encode())), json.loads(text)), text


def test_loads_reads_each_register_entries_as_its_own_text():
    register = {"num_qubits": 2, "entries": [["1", 0.5, 0.0], ["3", -0.5, 0.0]]}
    other = {"num_qubits": 2, "entries": [["1", 0.5, 0.0], ["3", -0.5, 1e-9]]}
    written = jsonio.dumps({"serial": "01", "registers": [register] * 3 + [other]})
    doc = loads(written.encode())

    def as_text(r):  # each entries array comes unparsed, as its Text
        return {**r, "entries": jsonio.Text((jsonio.dumps(r["entries"]).encode(),))}
    assert doc["registers"] == [as_text(register)] * 3 + [as_text(other)]
    assert all(type(r["entries"]) is jsonio.Text for r in doc["registers"])
    assert doc["registers"][1] == doc["registers"][0] != doc["registers"][3]
    assert jsonio.dumps(doc) == written
    # spaced by json.dumps, a space after each key's colon, each entries array is a Text of its
    # spaced bytes
    assert loads(json.dumps({"registers": [register, other]}).encode())["registers"] == [
        {**r, "entries": jsonio.Text((json.dumps(r["entries"]).encode(),))} for r in (register, other)]


_MARKERS = ["#" * (1 << j) for j in range(7)] + ['"#', 'x"##', "##x", ""]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(_MARKERS) | st.text('#"\\x', max_size=6), max_size=8), st.data())
def test_dump_splices_each_text_past_strings_and_keys_that_spell_its_marker(strings, data):
    """dump spells a Text as a string of #s in its one json encode; document strings and keys
    that spell it too are written as they are."""
    texts = [jsonio.Text((b"[1,", b"2.5]")), jsonio.Text((b'{"#":"#"}',)), jsonio.Text((b"[]",))]
    picks = data.draw(st.lists(st.sampled_from(texts), min_size=1, max_size=4))
    doc = {"s": strings, **{s: i for i, s in enumerate(strings)}, "t": picks, "again": picks[0]}

    def spliced(v):  # the document with each Text replaced by the value it spells
        if isinstance(v, jsonio.Text):
            return json.loads(b"".join(v.parts))
        return {k: spliced(x) for k, x in v.items()} if isinstance(v, dict) else (
            [spliced(x) for x in v] if isinstance(v, list) else v)
    out = io.BytesIO()
    jsonio.dump(doc, out)
    assert out.getvalue().decode() == jsonio.dumps(doc) == json.dumps(spliced(doc),
                                                                       separators=(",", ":"))


def _texts(v) -> int:
    """The number of Texts in a loaded value."""
    if isinstance(v, jsonio.Text):
        return 1
    values = v.values() if isinstance(v, dict) else v if isinstance(v, list) else ()
    return sum(map(_texts, values))


KEY_TEXTS = [
    (r'{"s":"\"entries\":[[1]]","entries":[["0",1.0,0.0]]}', 1),  # in a string value
    (r'{"x\"entries":[["0",1.0,0.0]],"entries":[["1",1.0,0.0]]}', 1),  # a key's end
    (r'{"k\\":"\\","entries":[["0",1.0,0.0]]}', 1),  # escaped backslashes end their strings
    (r'{"k\\\"entries":[[1]],"entries":[["0",1.0,0.0]]}', 1),  # then an escaped quote
    (r'["\"entries\":[",{"entries":[["0",1.0,0.0]]},"]]\"",{"entries":[]}]', 2),
    (r'{"a":"\\\\","b\"":{"entries":[["0",1.0,0.0]]}}', 1),
    (r'{"s":"a"entries":[1]}', 0),  # the quotes of "entries" end and open strings: invalid
    (r'{"s":"\"entries":[1]}', 0),  # unterminated
]


@pytest.mark.parametrize("text, texts", KEY_TEXTS)
def test_loads_takes_entries_keys_outside_strings_only(text, texts):
    """"entries":[ spelled inside a string, or after escaped quotes, is no key: loads gives
    json.loads' value up to Texts, with a Text for each whole entries key, or its error."""
    got, want = _outcome(loads, text.encode()), _outcome(json.loads, text)
    assert got[0] == want[0], text
    if got[0] == "ok":
        assert _same(_spliced(got[1]), want[1]) and _texts(got[1]) == texts, text
    else:
        assert got == want and texts == 0, text


UTF8_DATA = [
    b'{"a":"\xff","entries":[["0",1.0,0.0]]}',  # in the skeleton
    b'{"a":1,"entries":[["0",1.0,0.0],["\xc3",0.0,0.0]]}',  # inside an entries span
    b'{"entries":[["0",1.0,0.0]],"b":"\xed\xa0\x80"}',  # an encoded surrogate
    b'{"entries":[["0",1.0,0.0]],"b":"\xc3\xa9\xe2\x82\xac"}',  # UTF-8 beyond ASCII
    b'\xef\xbb\xbf{"entries":[]}',  # a byte order mark, which json.loads refuses in text
]


@pytest.mark.parametrize("data", UTF8_DATA)
def test_loads_reads_utf8_only_as_json_loads_reads_the_decoded_text(data):
    def decoded(d):
        return json.loads(d.decode())
    got, want = _outcome(loads, data), _outcome(decoded, data)
    assert got[0] == want[0] and (_same(_spliced(got[1]), want[1]) if got[0] == "ok"
                                  else got == want), data


def test_texts_are_equal_when_every_byte_of_every_part_is():
    # parts longer than the 64 KiB compared at a time, differing in their last byte only
    data = bytes(200_003)
    last = data[:-1] + b"\x01"
    assert jsonio.Text((memoryview(data)[3:],)) == jsonio.Text((data[3:],))
    assert jsonio.Text((data,)) != jsonio.Text((last,)) != jsonio.Text((memoryview(data),))
    assert jsonio.Text((data[:-1],)) != jsonio.Text((data,)) != jsonio.Text((b"",))
    assert jsonio.Text((b"[1,", b"2]")) == jsonio.Text((b"[1,", b"2]")) != jsonio.Text((b"[1,2]",))
    assert jsonio.Text((b"[]",)) != [] and jsonio.Text((b"[]",)) != "[]"


def _register_text(entries, separators=(",", ":"), indent=None) -> str:
    return json.dumps({"num_qubits": 4, "entries": entries}, separators=separators, indent=indent)


_REGISTER = [[format(i, "x"), 0.5, 0.0] for i in (1, 4, 7, 13)]
# bolt-like files: three registers (the third differs from the first in its last amplitude's
# last digit), spaced and indented copies, non-compact entries, "]" ws "]" across lines, bytes
# that are not UTF-8 (a lone lead byte too) inside a span and after it, and files cut mid-span
_BOLTS = [
    '{"serial":"01","registers":[%s]}' % ",".join([_register_text(_REGISTER)] * 2 + [
        _register_text(_REGISTER[:3] + [["d", 0.50000000000000001, 0.0]])]),
    '{"registers":[%s,%s]}' % (_register_text(_REGISTER), _register_text(_REGISTER, (", ", ": "))),
    json.dumps({"registers": [{"entries": _REGISTER}] * 2}, indent=1),
    '{"entries":[["1",0.5,0.0]\n ,\t["2",0.5,0.0] \r\n ] ,"x":[[1] ]}',
    '{"entries":[  ],"a":[[]],"entries":[ \n ],"b":1}',
]
CORPUS = [t.encode() for t in EDGE_TEXTS[:-2] + [t for t, _ in KEY_TEXTS] + _BOLTS] + UTF8_DATA + [
    _BOLTS[0].encode()[:cut] for cut in (40, 60, 95, 120)] + [
    _BOLTS[0].encode().replace(b'"d"', b'"\xff"'), _BOLTS[0].encode() + b' "\xc3"',
    _BOLTS[3].encode().replace(b"\t", b"\xc3\xa9"), _BOLTS[3].encode().replace(b"\t", b"\xc3")]


def _texts_of(v) -> list:
    """The Texts of a loaded value, in document order."""
    if isinstance(v, jsonio.Text):
        return [v]
    values = v.values() if isinstance(v, dict) else v if isinstance(v, list) else ()
    return [t for x in values for t in _texts_of(x)]


def _spans_of(v):
    """The value with each Text replaced by the (start, stop) of its one part in the file."""
    if isinstance(v, jsonio.Text):
        (part,) = v.parts
        return ("text", part.start, part.stop)
    if isinstance(v, dict):
        return {k: _spans_of(x) for k, x in v.items()}
    return [_spans_of(x) for x in v] if isinstance(v, list) else v


def _same_as_whole_bytes(data):
    """load gives whole_loads' document, Text spans and Text equalities, or its error."""
    got, want = _outcome(loads, data), _outcome(whole_loads, data)
    assert got[0] == want[0], (data, got, want)
    if got[0] != "ok":
        assert got == want, data
        return
    assert _same(_spans_of(got[1]), _spans_of(want[1])), data
    texts, whole = _texts_of(got[1]), _texts_of(want[1])
    assert [a == b for a in texts for b in texts] == [a == b for a in whole for b in whole], data


@pytest.mark.parametrize("chunk", range(1, 65))
def test_load_by_chunks_is_whole_bytes_parsing(chunk, monkeypatch):
    # keys, quotes, escapes, "]" ws "]", non-ASCII bytes and cuts straddle every chunk edge
    monkeypatch.setattr(jsonio, "CHUNK", chunk)
    for data in CORPUS:
        for wrapped in (data, b"[%s]" % data, b'{"r":%s}' % data):
            _same_as_whole_bytes(wrapped)


@settings(max_examples=200, deadline=None)
@given(_ENTRIES_DOCUMENTS, st.sampled_from([(",", ":"), (", ", ":"), (",", ": ")]),
       st.sampled_from([None, 1]), st.integers(1, 64), st.data())
def test_load_by_chunks_of_entries_documents_is_whole_bytes_parsing(doc, separators, indent,
                                                                   chunk, data):
    text = json.dumps(doc, separators=separators, indent=indent).encode()
    cut = data.draw(st.integers(0, len(text)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsonio, "CHUNK", chunk)
        for variant in (text, text[:cut], text[:cut] + b"\xff" + text[cut:]):
            _same_as_whole_bytes(variant)


@pytest.mark.parametrize("chunk", [4093, 65536, 1 << 20])
def test_file_texts_compare_by_their_bytes(chunk, monkeypatch):
    # registers longer than the 64 KiB compared at a time: equal, one digit apart at the end,
    # on either side of the first 64 KiB edge and at the start, and one entry longer
    monkeypatch.setattr(jsonio, "CHUNK", chunk)
    base = jsonio.encode([[format(i, "x"), 0.125, 0.0] for i in range(8000)])
    below = max(k for k in range(65536) if base[k].isdigit())
    above = min(k for k in range(65536, len(base)) if base[k].isdigit())

    def changed(k):
        return base[:k] + "19"[base[k] == "1"] + base[k + 1:]
    variants = [base, base, base[:-6] + "1.0]]", changed(below), changed(above), changed(3),
                base[:-2] + '],["fa0",0.125,0.0]]']
    assert base[3] == "0" and len(base) > 2 * 65536
    doc = loads(jsonio.encode({"registers": [{"entries": "#"}] * len(variants)}).replace(
        '"#"', "%s").encode() % tuple(v.encode() for v in variants))
    texts = [r["entries"] for r in doc["registers"]]
    assert all(type(t) is jsonio.Text for t in texts)
    assert [a == b for a in texts for b in texts] == [a == b for a in variants for b in variants]


def test_loading_a_bolt_holds_no_more_than_one_register_beside_its_amplitudes(tmp_path,
                                                                            monkeypatch):
    # an m=16 bolt, read with the chunk and block sizes scaled down as its file is from the m=20
    # one's: no register is held whole, where the whole file's three were
    from boltlab import cli, lightning, qsim
    key, bolt = tmp_path / "key.json", tmp_path / "bolt.json"
    for argv in (["lightning", "setup", "--n", "2", "--m", "16", "--seed", "7", "--out", str(key)],
                 ["lightning", "gen", "--key", str(key), "--seed", "9", "--out", str(bolt)]):
        assert cli.main(argv) == 0
    register = len(jsonio.encode(json.loads(bolt.read_text())["registers"][0]))
    monkeypatch.setattr(jsonio, "CHUNK", 1 << 16)
    monkeypatch.setattr(qsim, "_READ", 1 << 13)
    tracemalloc.start()
    try:
        loaded = cli._load(str(bolt), lightning.bolt_from_json)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    amps = loaded.registers[0].amps.nbytes
    assert len({id(r) for r in loaded.registers}) == 1 and amps == 8 << 16
    assert peak < amps + register, (peak, amps, register)


@pytest.mark.parametrize("chunk", [7, 1 << 20])
def test_an_indented_bolt_loads_each_register_as_a_text_span(chunk, monkeypatch):
    # laid out by json.dumps(indent=...), a newline or a space after each key's colon, with the
    # chunks cutting keys and the whitespace after them: each register's entries are a Text of
    # their span, not json's lists, and load to the compact file's amplitudes
    from boltlab import lightning
    from boltlab.mqhash import keygen
    from oracles import DESK
    monkeypatch.setattr(jsonio, "CHUNK", chunk)
    key = keygen(2, 12, np.random.default_rng(7))
    compact = jsonio.dumps(lightning.bolt_to_json(lightning.gen_bolt(key, DESK, np.random.default_rng(9))))
    want = lightning.bolt_from_json(loads(compact.encode())).registers[0].amps
    doc = json.loads(compact)
    for indent in (1, "\t"):
        data = json.dumps(doc, indent=indent).encode()
        got = loads(data)
        texts = [r["entries"] for r in got["registers"]]
        assert all(type(t) is jsonio.Text for t in texts), indent
        assert [json.loads(t.parts[0][:]) for t in texts] == [r["entries"] for r in doc["registers"]]
        assert all(np.array_equal(r.amps, want) for r in lightning.bolt_from_json(got).registers)


def test_a_process_that_imports_only_jsonio_loads_entries_as_a_text(tmp_path):
    # the text-array key is jsonio's own, so no other layer need be loaded to set it
    from boltlab import qsim
    from oracles import basis_state
    path = tmp_path / "state.json"
    with open(path, "wb") as fh:
        jsonio.dump(qsim.state_dump(basis_state(3, 5)), fh)
    code = ("import sys; from boltlab import jsonio; doc = jsonio.load(open(sys.argv[1], 'rb')); "
            "print(type(doc['entries']) is jsonio.Text, "
            "sorted(m for m in sys.modules if m.startswith('boltlab')))")
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.stdout == "True ['boltlab', 'boltlab.jsonio']\n"
