"""Lexical rules: phrases denoting base DSL concepts (Appendix B.2).

A lexical entry maps a (lemmatised) phrase of one or more tokens to a grammar
category and a semantic value: a character class / literal for ``$CC`` and
``$CONST``, or an operator marker for the ``$OP_*`` categories.  The lexicon
below covers the vocabulary of both datasets (the DeepRegex-style synthetic
descriptions and the StackOverflow-style posts).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dsl import ast as rast


@dataclass(frozen=True)
class LexicalEntry:
    """One lexical rule: ``phrase`` → category with semantic ``value``."""

    phrase: tuple[str, ...]
    category: str
    value: object = None


def _cc(*phrases: str, value: rast.Regex) -> list[LexicalEntry]:
    return [LexicalEntry(tuple(p.split()), "$CC", value) for p in phrases]


def _const(*phrases: str, char: str) -> list[LexicalEntry]:
    return [LexicalEntry(tuple(p.split()), "$CONST", rast.literal(char)) for p in phrases]


def _op(category: str, *phrases: str) -> list[LexicalEntry]:
    return [LexicalEntry(tuple(p.split()), category, category) for p in phrases]


LEXICON: list[LexicalEntry] = [
    # ----- character classes ------------------------------------------------
    *_cc("number", "numeric", "numeral", "digit", "decimal digit", value=rast.NUM),
    *_cc("letter", "character", "alphabet", "alphabetic character", "alpha",
         "alphabetical character", value=rast.LET),
    *_cc("lower case letter", "lowercase letter", "small letter", "lower case",
         "lowercase", value=rast.LOW),
    *_cc("upper case letter", "uppercase letter", "capital letter", "capital",
         "upper case", "uppercase", value=rast.CAP),
    *_cc("alphanumeric", "alphanumeric character", "alpha numeric", "letter or digit",
         value=rast.ALPHANUM),
    *_cc("hexadecimal", "hex digit", "hexadecimal character", value=rast.HEX),
    *_cc("vowel", value=rast.VOW),
    *_cc("special character", "special char", "symbol", "punctuation", value=rast.SPEC),
    *_cc("string", "anything", "any character", "any string", "word", value=rast.ANY),
    # ----- constants ---------------------------------------------------------
    *_const("comma", char=","),
    *_const("period", "dot", "full stop", "decimal point", "point", char="."),
    *_const("colon", char=":"),
    *_const("semicolon", char=";"),
    *_const("space", "blank", "whitespace", char=" "),
    *_const("underscore", char="_"),
    *_const("dash", "hyphen", "minus", "minus sign", char="-"),
    *_const("plus", "plus sign", char="+"),
    *_const("slash", "forward slash", char="/"),
    *_const("backslash", char="\\"),
    *_const("at sign", "at symbol", char="@"),
    *_const("percentage sign", "percent sign", "percent", char="%"),
    *_const("dollar sign", "dollar", char="$"),
    *_const("hash", "pound sign", "number sign", char="#"),
    *_const("asterisk", "star character", char="*"),
    *_const("ampersand", char="&"),
    *_const("question mark", char="?"),
    *_const("exclamation mark", "exclamation point", char="!"),
    *_const("equal sign", "equals sign", char="="),
    *_const("apostrophe", "single quote", char="'"),
    *_const("quotation mark", "double quote", char='"'),
    *_const("open parenthesis", "left parenthesis", char="("),
    *_const("close parenthesis", "right parenthesis", char=")"),
    *_const("open bracket", "left bracket", char="["),
    *_const("close bracket", "right bracket", char="]"),
    # ----- operator markers ---------------------------------------------------
    *_op("$OP_CONCAT", "before", "then", "follow by", "followe by", "follow with",
         "next", "prior to", "precede", "and then", "in front of"),
    *_op("$OP_FOLLOW", "after", "preceded by", "behind"),
    *_op("$OP_STARTWITH", "start with", "start in", "begin with", "beginning with",
         "at the beginning", "at the begin", "starting with", "lead with",
         "first character be", "must start with"),
    *_op("$OP_ENDWITH", "end with", "end in", "finish with", "terminate with",
         "terminate in", "at the end", "ending with", "last character be"),
    *_op("$OP_CONTAIN", "contain", "include", "have", "with", "containing"),
    *_op("$OP_NOTCONTAIN", "not contain", "not allow", "not include", "without",
         "do not contain", "do not allow", "cannot contain", "no", "never contain",
         "exclude", "not have", "doe not contain"),
    *_op("$OP_NOT", "not", "anything but", "other than", "except"),
    *_op("$OP_OPTIONAL", "optional", "optionally", "may", "might", "possibly",
         "if present", "can be omit", "or nothing", "if any"),
    *_op("$OP_OR", "or", "either", "one of"),
    *_op("$OP_AND", "and also", "as well as", "both"),
    *_op("$OP_ATMAX", "at max", "at most", "up to", "maximum", "maximum of", "max",
         "no more than", "not more than", "at the most", "fewer than", "less than"),
    *_op("$OP_ATLEAST", "at least", "minimum", "minimum of", "no less than",
         "not less than", "more than"),
    *_op("$OP_ORMORE", "or more", "or more time", "and more", "or greater"),
    *_op("$OP_ONLY", "only", "exactly", "just", "solely", "nothing but"),
    *_op("$OP_KLEENE", "any number of", "zero or more", "some number of",
         "arbitrary number of", "any amount of"),
    *_op("$OP_ONEPLUS", "one or more", "at least one", "several", "a sequence of",
         "a series of", "consist of", "made of", "made up of", "composed of"),
    *_op("$OP_SEP", "separate by", "separated by", "delimit by", "delimited by",
         "divide by", "divided by", "split by", "join by", "joined by"),
    *_op("$OP_BETWEEN", "between", "in between"),
    *_op("$OP_DECIMAL", "decimal number", "floating point", "float", "real number",
         "decimal value"),
    *_op("$OP_LENGTH", "length", "long", "character long", "digit long", "in length"),
    *_op("$OP_RANGE", "to", "through", "-"),
]


def max_phrase_length() -> int:
    """Longest phrase in the lexicon (bounds the span search of the parser)."""
    return max(len(entry.phrase) for entry in LEXICON)


def entries_by_first_lemma() -> dict[str, list[LexicalEntry]]:
    """Index of lexical entries keyed by their first lemma (parser lookup)."""
    index: dict[str, list[LexicalEntry]] = {}
    for entry in LEXICON:
        index.setdefault(entry.phrase[0], []).append(entry)
    return index
