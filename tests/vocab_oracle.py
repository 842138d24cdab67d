"""Reference ID assignment: one token at a time, for differential tests.

The per-token loop ``clcp.vocab.assign_ids`` ran before it looked tokens up in
bulk: every token takes its component's branch and looks its own key up in
the vocabulary's ``(key, component)`` table (a whitespace run per character, a
call by member name, a Placeholder as ``STR`` whatever its text).  It is kept
only as an independent oracle.
"""
from __future__ import annotations

from clcp.pylex import PLACEHOLDER_TEXT, Component
from clcp.vocab import CORPUS_KEYED, USER_SCOPED, VocabError, _corpus_key


def assign_ids(tokens, vocabulary, scope):
    ids = []
    append = ids.append
    fixed = vocabulary.fixed
    allocate = scope.allocate
    whitespace, placeholder = Component.WHITESPACE, Component.PLACEHOLDER
    for tok in tokens:
        component = tok.component
        if component is whitespace:
            ids.extend([fixed[ch, component] for ch in tok.text])
        elif component in USER_SCOPED:
            append(allocate(component, tok.text))
        elif component in CORPUS_KEYED:
            key = _corpus_key(tok)
            id_ = fixed.get((key, component))
            append(id_ if id_ is not None else allocate(component, key))
        else:
            text = PLACEHOLDER_TEXT if component is placeholder else tok.text
            id_ = fixed.get((text, component))
            if id_ is None:
                raise VocabError(f"{component.value} token {text!r} missing from its fixed table")
            append(id_)
    max_id = vocabulary.ranges.max_id
    if ids and (min(ids) < 1 or max(ids) > max_id):
        bad = next(id_ for id_ in ids if not 1 <= id_ <= max_id)
        raise VocabError(f"assigned ID {bad} escapes the table ranges")
    return ids
