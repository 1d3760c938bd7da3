"""Word snapshots of tag and database state, for tests that compare them."""


def stored_words(record) -> tuple[int, ...]:
    """Every word a TagState or DatabaseEntry stores, in field order.

    A pair gives its two words; a tag's width is not a stored word.
    """
    out = ()
    for name in record._fields:
        if name != "width":
            value = getattr(record, name)
            out += tuple(value) if isinstance(value, tuple) else (value,)
    return out
