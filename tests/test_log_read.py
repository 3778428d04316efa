"""The chunked log reader against the per-line reader it replaced
(``log_read_oracle``): on logs that end on, before and after a chunk
boundary, on mutations of the lines around the first boundary, and on
framing faults, both give equal records or the same ``SchemaError`` text."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import log_read_oracle
from helpers import bench_engines
from storefront import SchemaError, read_log, state
from test_log_format import _JSON, _dump, _full_purchase_lines

CHUNK = 64


@pytest.fixture(scope="module")
def lines() -> list[str]:
    """The first 130 lines of a short shop-mix run's log: puts that create
    entities and puts of changed fields, across three chunks."""
    engine = bench_engines()[0]
    assert len(engine.state.log) >= 130
    return [record.to_json_line() for record in engine.state.log[:130]]


def _write(path, lines, ending="\n"):
    """Write ``lines`` (text or bytes), each followed by ``ending``."""
    path.write_bytes(b"".join((line if isinstance(line, bytes) else line.encode("utf-8"))
                              + ending.encode() for line in lines))
    return path


def _outcome(read, path):
    try:
        return read(path)
    except SchemaError as exc:
        return str(exc)


def same_as_oracle(path):
    """What both readers make of the log at ``path``: its records, or the
    text of the ``SchemaError`` that refuses it."""
    expected = _outcome(log_read_oracle.read_log, path)
    assert _outcome(read_log, path) == expected
    return expected


@pytest.mark.parametrize("count", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 2])
def test_both_readers_read_a_log_of_any_length_alike(lines, tmp_path, count):
    records = same_as_oracle(_write(tmp_path / "events.jsonl", lines[:count]))
    assert [record.to_json_line() for record in records] == lines[:count]


def test_a_clean_log_is_read_a_chunk_at_a_time(lines, tmp_path, monkeypatch):
    chunks = []
    read_chunk = state._read_chunk

    def counting(chunk, *args):
        chunks.append(len(chunk))
        return read_chunk(chunk, *args)
    monkeypatch.setattr(state, "_read_chunk", counting)
    read_log(_write(tmp_path / "events.jsonl", lines))
    assert chunks == [CHUNK, CHUNK, 2]


def _put_positions(line: str) -> list[int]:
    return [index for index, fact in enumerate(json.loads(line)["deltas"]) if fact["f"] == "put"]


def _mutate(data, lines, kind, index):
    """The mutation classes of ``test_verify_of_a_mutated_log_exits_cleanly``,
    applied to the line at ``index``."""
    lines = list(lines)
    if kind == "drop":
        del lines[index]
    elif kind == "duplicate":
        lines.insert(index, lines[index])
    elif kind == "swap":
        other = data.draw(st.sampled_from([0, index - 1, index + 1, len(lines) - 1]))
        lines[index], lines[other] = lines[other], lines[index]
    elif kind == "cut":
        lines[index] = lines[index][:data.draw(st.integers(1, len(lines[index]) - 1))]
    else:
        record = json.loads(lines[index])
        fact = record["deltas"][data.draw(st.sampled_from(_put_positions(lines[index])))]
        if kind == "delete field":
            if fact["data"]:
                del fact["data"][data.draw(st.sampled_from(sorted(fact["data"])))]
        else:
            name = data.draw(st.sampled_from(sorted(fact["data"]) + ["id", "no_such_field"]))
            fact["data"][name] = data.draw(_JSON, label="value")
        lines[index] = _dump(record)
    return lines


@pytest.mark.parametrize("line_number", range(CHUNK - 1, CHUNK + 3))
@pytest.mark.parametrize("kind", ["drop", "duplicate", "swap", "cut", "delete field",
                                  "add field"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_both_readers_read_a_mutated_line_at_the_chunk_boundary_alike(
        lines, tmp_path_factory, kind, line_number, data):
    assert all(_put_positions(line) for line in lines[CHUNK - 2:CHUNK + 2])
    mutated = _mutate(data, lines, kind, line_number - 1)
    same_as_oracle(_write(tmp_path_factory.mktemp("log") / "events.jsonl", mutated))


@pytest.mark.parametrize("where", [[0], [CHUNK - 1], [CHUNK], [CHUNK + 1], [130],
                                   [0, 1, CHUNK, CHUNK, 130, 130]])
def test_blank_lines_are_skipped_alike(lines, tmp_path, where):
    spaced = list(lines)
    for index in sorted(where, reverse=True):
        spaced.insert(index, "")
    records = same_as_oracle(_write(tmp_path / "events.jsonl", spaced))
    assert [record.to_json_line() for record in records] == lines


def test_a_log_of_blank_lines_or_no_lines_is_read_alike(tmp_path):
    assert same_as_oracle(_write(tmp_path / "blank.jsonl", [""] * (CHUNK + 1))) == []
    assert same_as_oracle(_write(tmp_path / "empty.jsonl", [])) == []


@pytest.mark.parametrize("text", [" ", "\r", "x"])
def test_a_line_with_no_record_is_refused_alike(lines, tmp_path, text):
    lines = list(lines)
    lines[CHUNK + 1] = text
    assert f":{CHUNK + 2}: bad event record: JSONDecodeError: Expecting value" in (
        same_as_oracle(_write(tmp_path / "events.jsonl", lines)))


@pytest.mark.parametrize("index", [0, CHUNK - 1, CHUNK, 129])
def test_a_carriage_return_is_refused_alike(lines, tmp_path, index):
    lines = list(lines)
    lines[index] += "\r"
    assert f":{index + 1}: bad event record: SchemaError: text after the record" in (
        same_as_oracle(_write(tmp_path / "events.jsonl", lines)))


def test_a_log_written_with_carriage_returns_is_refused_alike(lines, tmp_path):
    assert ":1: bad event record" in same_as_oracle(
        _write(tmp_path / "events.jsonl", lines, ending="\r\n"))


@pytest.mark.parametrize("text", ["é".encode(), b"\xff"])
@pytest.mark.parametrize("index", [CHUNK, CHUNK + 5, 2 * CHUNK + 1])
def test_a_non_ascii_byte_is_refused_alike(lines, tmp_path, text, index):
    lines = [line.encode() for line in lines]
    lines[index] = lines[index].replace(b'"actor":"', b'"actor":"' + text, 1)
    assert f":{index + 1}: bad event record: UnicodeDecodeError" in (
        same_as_oracle(_write(tmp_path / "events.jsonl", lines)))


@pytest.mark.parametrize("count", [1, 2, CHUNK, CHUNK + 1, 130])
@pytest.mark.parametrize("cut", [0, 1, 2])
def test_a_last_line_without_its_newline_is_refused_alike(lines, tmp_path, count, cut):
    """Whole, cut inside its record, or followed by other text."""
    lines = list(lines[:count])
    lines[-1] = [lines[-1], lines[-1][:-1], lines[-1] + " x"][cut]
    path = tmp_path / "events.jsonl"
    path.write_bytes("\n".join(lines).encode())
    assert f"events.jsonl:{count}: bad event record" in same_as_oracle(path)


@pytest.mark.parametrize("text, forged", [
    ('"id":"cart:1"', '"id":"cart:01"'),  # first in the put's data
    ('"f":"put","id":"cart:1"', '"f":"put","id":"cart:01"'),
    ('"actor":"customer:1"', '"actor":"customer:01"'),
], ids=["data-id", "fact-id", "actor"])
def test_an_id_written_in_another_text_is_refused_alike(tmp_path, text, forged):
    lines = list(_full_purchase_lines())
    index = next(index for index, line in enumerate(lines) if text in line)
    lines[index] = lines[index].replace(text, forged, 1)
    assert f"events.jsonl:{index + 1}: bad event record: SchemaError: entity id " in (
        same_as_oracle(_write(tmp_path / "events.jsonl", lines)))


def _forged_lines() -> list[str]:
    """The full-purchase log with line 1 split after its first fact, the comma
    after it dropped, and lines 3 and 4 joined by a comma: as lines joined
    into one JSON array it reads as the log itself, as lines it is refused."""
    lines = list(_full_purchase_lines())
    first = lines[0]
    _, end = json.JSONDecoder().raw_decode(first, first.index('"deltas":[') + len('"deltas":['))
    assert first[end] == ","
    return [first[:end], first[end + 1:], lines[1], lines[2] + "," + lines[3], *lines[4:]]


def test_a_forged_log_that_reads_as_one_array_is_refused_alike(tmp_path):
    forged = _forged_lines()
    log = list(_full_purchase_lines())
    assert len(forged) == len(log)
    assert json.loads("[" + ",".join(forged) + "]") == [json.loads(line) for line in log]
    assert "events.jsonl:1: bad event record: JSONDecodeError" in (
        same_as_oracle(_write(tmp_path / "events.jsonl", forged)))
