"""Rule-based removal of redundant description content.

Six rules run in the order of ``RULES``: entity decoding, URL spans, doctest
demonstrations, directory listings, dashed parameter-table sections, then
whitespace collapsing.
Records whose cleaned text keeps fewer than three words are marked dropped.
Cleaning is idempotent and never lengthens the text; every removed character
is attributed to exactly one rule.
"""
from __future__ import annotations

import html
import re
from dataclasses import dataclass, field

from .ingest import PairRecord

MIN_WORDS = 3


@dataclass
class CleanReport:
    """What the pipeline did to one description."""

    rules_fired: dict[str, int] = field(default_factory=dict)
    removed_chars: dict[str, int] = field(default_factory=dict)
    before_len: int = 0
    after_len: int = 0
    dropped: bool = False

    def record(self, rule, hits, removed):
        if hits:
            self.rules_fired[rule] = self.rules_fired.get(rule, 0) + hits
        if removed:
            self.removed_chars[rule] = self.removed_chars.get(rule, 0) + removed


_URL_RE = re.compile(r"<\s*https?://[^>]*>|https?://\S+")
_DOCTEST_MARK = ">>>"
_DASHES_RE = re.compile(r"^\s*-{3,}\s*$")
_SECTION_HEADERS = frozenset(
    ("parameters", "returns", "raises", "yields", "examples", "example",
     "attributes", "notes", "see also", "references", "other parameters",
     "args", "arguments", "usage"))
_PARAM_ENTRY_RE = re.compile(r"^\s*[*\w.\[\]]+\s*:\s*\S")
_FILE_EXT_RE = re.compile(r"\b\w[\w\-]*\.(?!\d)[A-Za-z][A-Za-z0-9]{0,4}\b")
_PATHSEP_RE = re.compile(r"[\w.\-]+[/\\][\w.\-]")


def _decode_entities(doc):
    # to fixpoint: corpus text carries doubly-escaped entities like &amp;gt;
    text = doc
    for _ in range(20):
        decoded = html.unescape(text)
        if decoded == text:
            break
        text = decoded
    return text, int(text != doc)


def _strip_urls(text):
    return _URL_RE.subn("", text)


def _strip_doctests(text):
    """Remove prompt lines from their ``>>>`` onward plus trailing output lines."""
    out = []
    hits = 0
    skipping = False
    for line in text.split("\n"):
        mark = line.find(_DOCTEST_MARK)
        if mark != -1:
            hits += 1
            skipping = True
            head = line[:mark].rstrip()
            if head:
                out.append(head)
            continue
        if skipping:
            if not line.strip():
                skipping = False
                out.append(line)
            continue
        out.append(line)
    return "\n".join(out), hits


def _is_listing_line(line):
    stripped = line.strip()
    if not stripped or len(stripped) > 120:
        return False
    if _PATHSEP_RE.search(stripped):
        return True
    words = stripped.split()
    if len(words) <= 4 and all(re.fullmatch(r"[\w.\-/\\]+", w) for w in words):
        if _FILE_EXT_RE.search(stripped):
            return True
        if len(line) - len(line.lstrip()) >= 4:
            return True
    return False


def _strip_listings(text):
    """Remove runs of >= 2 consecutive path/indent-listing lines."""
    lines = text.split("\n")
    flags = [_is_listing_line(ln) for ln in lines]
    out = []
    hits = 0
    i = 0
    while i < len(lines):
        if flags[i]:
            j = i
            while j < len(lines) and flags[j]:
                j += 1
            if j - i >= 2:
                hits += 1
                i = j
                continue
        out.append(lines[i])
        i += 1
    return "\n".join(out), hits


def _strip_param_tables(text):
    """Remove a section header with a dashed underline and its entries."""
    lines = text.split("\n")
    out = []
    hits = 0
    i = 0
    while i < len(lines):
        if (i + 1 < len(lines)
                and lines[i].strip().lower().rstrip(":") in _SECTION_HEADERS
                and _DASHES_RE.match(lines[i + 1])):
            hits += 1
            i += 2
            while i < len(lines):
                line = lines[i]
                if (not line.strip() or line[:1] in (" ", "\t")
                        or _PARAM_ENTRY_RE.match(line) or _DASHES_RE.match(line)
                        or line.strip().lower().rstrip(":") in _SECTION_HEADERS):
                    i += 1
                    continue
                break
            continue
        out.append(lines[i])
        i += 1
    return "\n".join(out), hits


def _collapse_whitespace(text):
    collapsed = " ".join(text.split())
    return collapsed, int(collapsed != text)


# (name, rule): each rule maps text to (cleaned text, hits); applied in order
RULES = (
    ("decode_entities", _decode_entities),
    ("strip_urls", _strip_urls),
    ("strip_doctests", _strip_doctests),
    ("strip_directory_listings", _strip_listings),
    ("strip_parameter_tables", _strip_param_tables),
    ("collapse_whitespace", _collapse_whitespace),
)


def clean_doc(doc):
    """Apply the rule pipeline to one description; returns (text, report)."""
    report = CleanReport(before_len=len(doc))
    text = doc
    for name, rule in RULES:
        cleaned, hits = rule(text)
        report.record(name, hits, len(text) - len(cleaned))
        text = cleaned
    report.after_len = len(text)
    report.dropped = len(text.split()) < MIN_WORDS
    return text, report


def clean_corpus(records):
    """Clean every record's doc; dropped records are excluded from the output.

    Returns (cleaned records, aggregate) where aggregate counts rule firings,
    drops, and totals across the corpus.
    """
    cleaned = []
    aggregate = {"total": 0, "kept": 0, "dropped": 0,
                 "rules_fired": {name: 0 for name, _ in RULES},
                 "removed_chars": {name: 0 for name, _ in RULES}}
    for rec in records:
        aggregate["total"] += 1
        text, report = clean_doc(rec.doc)
        for rule, n in report.rules_fired.items():
            aggregate["rules_fired"][rule] += n
        for rule, n in report.removed_chars.items():
            aggregate["removed_chars"][rule] += n
        if report.dropped:
            aggregate["dropped"] += 1
            continue
        aggregate["kept"] += 1
        cleaned.append(PairRecord(rec.id, rec.code, text))
    return cleaned, aggregate
