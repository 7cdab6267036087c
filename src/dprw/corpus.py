"""Dataset ingestion, tokenization, vocabulary construction, and TSV
serialization for original and rewritten intent datasets.

The interchange format is one record per line, ``label<TAB>text``, UTF-8,
LF line endings, no header, no quoting. All operations here are pure or
read-only after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

PAD, SOS, EOS, UNK = "<pad>", "<sos>", "<eos>", "<unk>"
SPECIAL_TOKENS = (PAD, SOS, EOS, UNK)
PAD_ID, SOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
# Tokens a document may not hold: read as ids, they would end a sentence
# or pad it in the middle. UNK may appear, since rewritten text carries it.
CONTROL_TOKENS = frozenset((PAD, SOS, EOS))

TokenIdSequence = list[int]


class DatasetFormatError(ValueError):
    """A dataset file violates the label<TAB>text format."""


@dataclass(frozen=True)
class Document:
    text: str
    label: str


@dataclass
class LabeledDataset:
    """Train/validation/test splits plus the ordered union of their labels."""

    train: list[Document]
    validation: list[Document] = field(default_factory=list)
    test: list[Document] = field(default_factory=list)
    label_set: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.label_set:
            self.label_set = collect_labels(self.train, self.validation, self.test)


def collect_labels(*splits: list[Document]) -> list[str]:
    """Union of labels across splits, ordered by first appearance."""
    seen: dict[str, None] = {}
    for split in splits:
        for doc in split:
            seen.setdefault(doc.label, None)
    return list(seen)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on Unicode whitespace; never yields empty tokens."""
    return text.lower().split()


def _control_token(tokens: list[str]) -> str | None:
    """The first control token among ``tokens``, or None."""
    return next((tok for tok in tokens if tok in CONTROL_TOKENS), None)


def load_split(path: str | Path) -> list[Document]:
    """Read one split file; malformed lines are reported with their number.

    Text may not hold a control token (``<pad>``, ``<sos>`` or ``<eos>``
    in any case); ``<unk>`` is allowed.

    A leading UTF-8 byte-order mark is dropped, not read into the first label.
    Bytes that are not UTF-8 are decoded as lone surrogates, so the line
    that holds them can be named. Records end at LF only; one CR before
    the LF (a CRLF file) is dropped, and any other CR is refused, since
    it would otherwise end a record silently.
    """
    path = Path(path)
    docs = []
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise DatasetFormatError(f"{path}:{lineno}: not valid UTF-8") from None
            line = line.removesuffix("\n").removesuffix("\r")
            if "\r" in line:
                raise DatasetFormatError(f"{path}:{lineno}: carriage return inside a record")
            if "\t" not in line:
                raise DatasetFormatError(f"{path}:{lineno}: missing TAB separator")
            label, text = line.split("\t", 1)
            if not label.strip():
                raise DatasetFormatError(f"{path}:{lineno}: empty label field")
            if not text.strip():
                raise DatasetFormatError(f"{path}:{lineno}: empty text field")
            control = _control_token(tokenize(text))
            if control is not None:
                raise DatasetFormatError(f"{path}:{lineno}: text holds the control token {control!r}")
            docs.append(Document(text=text, label=label))
    return docs


def load_dataset(
    train_path: str | Path,
    validation_path: str | Path | None = None,
    test_path: str | Path | None = None,
) -> LabeledDataset:
    """Load up to three split files, preserving document order."""
    return LabeledDataset(
        train=load_split(train_path),
        validation=load_split(validation_path) if validation_path else [],
        test=load_split(test_path) if test_path else [],
    )


@dataclass
class Vocabulary:
    """Bijective token<->id map; ids 0..3 are PAD/SOS/EOS/UNK."""

    id_to_token: list[str]
    token_to_id: dict[str, int]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def token_id(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def token(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.id_to_token):
            raise ValueError(f"token id {token_id} out of range for vocabulary of {len(self)}")
        return self.id_to_token[token_id]


def build_vocabulary(train_docs: list[Document]) -> Vocabulary:
    """Vocabulary over every distinct training token, ids in first-occurrence
    order after the four specials. Non-training tokens map to UNK later."""
    if not train_docs:
        raise ValueError("cannot build a vocabulary from an empty training set")
    id_to_token = list(SPECIAL_TOKENS)
    token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
    for doc in train_docs:
        for token in tokenize(doc.text):
            if token not in token_to_id:
                token_to_id[token] = len(id_to_token)
                id_to_token.append(token)
    return Vocabulary(id_to_token=id_to_token, token_to_id=token_to_id)


def encode(doc: Document, vocab: Vocabulary, max_len: int) -> TokenIdSequence:
    """Token ids truncated to max_len, wrapped in SOS/EOS; OOV becomes UNK.
    A document that holds a control token is refused."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    tokens = tokenize(doc.text)
    control = _control_token(tokens)
    if control is not None:
        raise ValueError(f"document text holds the control token {control!r}")
    tokens = tokens[:max_len]
    return [SOS_ID] + [vocab.token_id(t) for t in tokens] + [EOS_ID]


def decode_ids(ids: TokenIdSequence, vocab: Vocabulary) -> str:
    """Tokens joined by single spaces; PAD/SOS/EOS stripped, UNK kept literal."""
    tokens = []
    for i in ids:
        token = vocab.token(i)
        if i in (PAD_ID, SOS_ID, EOS_ID):
            continue
        tokens.append(token)
    return " ".join(tokens)


def write_split(docs: list[Document], path: str | Path) -> None:
    """Write documents in the TSV interchange format.

    Whitespace that would break the format (tabs, newlines) is replaced by
    spaces; the tokenizer never produces such tokens, so round-trips are
    unaffected.
    """
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for doc in docs:
            text = doc.text.replace("\t", " ").replace("\r", " ").replace("\n", " ")
            fh.write(f"{doc.label}\t{text}\n")
