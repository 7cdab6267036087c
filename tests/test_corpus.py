"""TSV loading, tokenization, vocabulary, and id round-trips."""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dprw.corpus import (
    EOS_ID,
    PAD_ID,
    SOS_ID,
    SPECIAL_TOKENS,
    UNK,
    UNK_ID,
    DatasetFormatError,
    Document,
    LabeledDataset,
    build_vocabulary,
    collect_labels,
    decode_ids,
    encode,
    load_dataset,
    load_split,
    tokenize,
    write_split,
)


def test_tokenize_lowercases_and_splits_on_whitespace():
    assert tokenize("Book a\tFlight  to\nBoston") == ["book", "a", "flight", "to", "boston"]
    assert tokenize("   ") == []


def test_load_split_roundtrip(tmp_path):
    docs = [Document("book a flight", "book_flight"), Document("play some jazz", "play_music")]
    path = tmp_path / "train.tsv"
    write_split(docs, path)
    assert load_split(path) == docs


def test_write_split_sanitizes_embedded_tabs_and_newlines(tmp_path):
    path = tmp_path / "s.tsv"
    write_split([Document("bad\ttext\nhere", "lab")], path)
    loaded = load_split(path)
    assert loaded == [Document("bad text here", "lab")]


def test_load_split_reports_file_and_line_on_bad_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("ok\tfine\nno tab here\n")
    with pytest.raises(DatasetFormatError, match=r"bad\.tsv:2"):
        load_split(path)


@pytest.mark.parametrize(
    "raw, lineno",
    [
        (b"ok\tfine\n\xffok\tbad\n", 2),
        (b"\xef\xbb\xbfok\tfine\nok\tfine\nok\tcaf\xc3\n", 3),  # after a BOM
        (b"\xff\xfeo\x00k\x00", 1),  # UTF-16
    ],
)
def test_load_split_names_the_line_that_is_not_utf8(tmp_path, raw, lineno):
    path = tmp_path / "bad.tsv"
    path.write_bytes(raw)
    with pytest.raises(DatasetFormatError, match=rf"^{re.escape(str(path))}:{lineno}: not valid UTF-8$"):
        load_split(path)


_TSV_BYTES = [b"a", b"b c", b"\t", b"\n", b"\r", b"\r\n", b" ", b"\xef\xbb\xbf", b"\xc3\xa9", b"\xc3", b"\xff", b"\xed\xa0\x80"]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.binary(max_size=48) | st.lists(st.sampled_from(_TSV_BYTES), max_size=24).map(b"".join))
def test_load_split_fuzz_gives_documents_or_an_error_naming_file_and_line(tmp_path, raw):
    path = tmp_path / "fuzz.tsv"
    path.write_bytes(raw)
    try:
        docs = load_split(path)
    except DatasetFormatError as exc:
        match = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
        assert match, str(exc)
        assert 1 <= int(match.group(1)) <= 1 + raw.count(b"\n")
    else:
        assert all(d.label.strip() and d.text.strip() and "\t" not in d.label for d in docs)


def test_load_split_rejects_empty_fields(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("\tno label\n")
    with pytest.raises(DatasetFormatError, match="empty label"):
        load_split(path)
    path.write_text("label\t \n")
    with pytest.raises(DatasetFormatError, match="empty text"):
        load_split(path)


def test_load_dataset_optional_splits(tmp_path):
    train = tmp_path / "train.tsv"
    write_split([Document("a b", "x")], train)
    ds = load_dataset(train)
    assert ds.train and ds.validation == [] and ds.test == []


def test_label_set_spans_all_splits_in_first_appearance_order():
    ds = LabeledDataset(
        train=[Document("t", "red"), Document("t", "blue")],
        validation=[Document("v", "red")],
        test=[Document("s", "green")],
    )
    assert ds.label_set == ["red", "blue", "green"]
    assert collect_labels(ds.test, ds.train) == ["green", "red", "blue"]


def test_special_tokens_occupy_first_four_ids():
    vocab = build_vocabulary([Document("hello world", "x")])
    assert vocab.id_to_token[:4] == list(SPECIAL_TOKENS)
    assert vocab.token_id("hello") == 4
    assert vocab.token_id("world") == 5


def test_vocabulary_is_first_occurrence_ordered_and_bijective():
    vocab = build_vocabulary([Document("b a b c", "x"), Document("a d", "y")])
    assert vocab.id_to_token[4:] == ["b", "a", "c", "d"]
    for token, idx in vocab.token_to_id.items():
        assert vocab.id_to_token[idx] == token


def test_unknown_tokens_map_to_unk():
    vocab = build_vocabulary([Document("known", "x")])
    assert vocab.token_id("unseen") == UNK_ID


def test_vocabulary_token_raises_out_of_range():
    vocab = build_vocabulary([Document("a", "x")])
    with pytest.raises(ValueError):
        vocab.token(len(vocab))
    with pytest.raises(ValueError):
        vocab.token(-1)


def test_build_vocabulary_requires_documents():
    with pytest.raises(ValueError):
        build_vocabulary([])


def test_encode_wraps_in_sos_eos_and_truncates():
    vocab = build_vocabulary([Document("a b c d e", "x")])
    ids = encode(Document("a b c d e", "x"), vocab, max_len=3)
    assert ids[0] == SOS_ID and ids[-1] == EOS_ID
    assert len(ids) == 5  # SOS + 3 tokens + EOS
    with pytest.raises(ValueError):
        encode(Document("a", "x"), vocab, max_len=0)


def test_decode_strips_structurals_and_keeps_unk():
    vocab = build_vocabulary([Document("hello", "x")])
    ids = [SOS_ID, 4, UNK_ID, PAD_ID, EOS_ID]
    assert decode_ids(ids, vocab) == f"hello {UNK}"


def test_encode_decode_roundtrip_within_vocab():
    docs = [Document("book a flight to boston", "x")]
    vocab = build_vocabulary(docs)
    ids = encode(docs[0], vocab, max_len=20)
    assert decode_ids(ids, vocab) == docs[0].text


_token = st.text(alphabet="abcdefgh", min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(st.lists(_token, min_size=1, max_size=12))
def test_roundtrip_property_for_in_vocab_text(tokens):
    text = " ".join(tokens)
    vocab = build_vocabulary([Document(text, "x")])
    assert decode_ids(encode(Document(text, "x"), vocab, max_len=len(tokens)), vocab) == text


def test_leading_byte_order_mark_is_not_part_of_the_first_label(tmp_path):
    path = tmp_path / "bom.tsv"
    path.write_bytes("a\tfirst line\nb\tsecond\n".encode("utf-8-sig"))
    docs = load_split(path)
    assert [d.label for d in docs] == ["a", "b"]
    assert docs[0].text == "first line"


def test_crlf_lines_are_accepted(tmp_path):
    path = tmp_path / "crlf.tsv"
    path.write_bytes(b"lab\tsome text\r\nlab2\tmore text\r\n")
    docs = load_split(path)
    assert [d.label for d in docs] == ["lab", "lab2"]
    assert docs[0].text == "some text"


@pytest.mark.parametrize(
    ("raw", "lineno"),
    [
        (b"a\tbook a flight\rb\tplay music\nc\tstop\n", 1),  # a lone CR would split line 1
        (b"a\tfine\nb\tpl\ray\r\n", 2),  # inside a CRLF record
        (b"a\tfine\r\nb\ttwo\r\r\n", 2),  # two CRs before the LF
        (b"\ra\tfine\n", 1),
    ],
)
def test_a_carriage_return_inside_a_record_is_refused_naming_its_line(tmp_path, raw, lineno):
    path = tmp_path / "cr.tsv"
    path.write_bytes(raw)
    with pytest.raises(
        DatasetFormatError, match=rf"^{re.escape(str(path))}:{lineno}: carriage return inside a record$"
    ):
        load_split(path)


@pytest.mark.parametrize("token", ["<pad>", "<sos>", "<eos>", "<EOS>"])
def test_load_split_refuses_a_control_token_naming_file_line_and_token(tmp_path, token):
    path = tmp_path / "control.tsv"
    path.write_text(f"a\tbook a flight\nb\tshow {token} fares\n", encoding="utf-8")
    with pytest.raises(
        DatasetFormatError,
        match=rf"^{re.escape(str(path))}:2: text holds the control token {re.escape(repr(token.lower()))}$",
    ):
        load_split(path)


def test_load_split_and_encode_accept_the_unknown_token(tmp_path):
    path = tmp_path / "unk.tsv"
    path.write_text(f"a\tshow {UNK} fares\n", encoding="utf-8")
    docs = load_split(path)
    vocab = build_vocabulary([Document("show fares", "a")])
    assert encode(docs[0], vocab, max_len=5) == [SOS_ID, 4, UNK_ID, 5, EOS_ID]


@pytest.mark.parametrize("token", ["<pad>", "<sos>", "<eos>"])
def test_encode_refuses_an_in_memory_document_with_a_control_token(token):
    vocab = build_vocabulary([Document("show fares", "a")])
    with pytest.raises(ValueError, match=f"control token {re.escape(repr(token))}"):
        encode(Document(f"show {token} fares", "a"), vocab, max_len=5)
    with pytest.raises(ValueError, match="control token"):  # also past the truncation
        encode(Document(f"show fares {token}", "a"), vocab, max_len=1)
