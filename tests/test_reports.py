"""The report oracle: ``nilj report --primes 5,7`` must stay byte-identical,
and its searches must find the same first hits."""

import hashlib
import json

REPORT_TEXT_SHA256 = "f321f9b157ccad228c6426665485b55457198544d51bc0e4cfa922cec01dbd58"
REPORT_JSON_SHA256 = "d91b38c24dc3a47e060534750bc5b2ec9003e807b254c3a5c4610c5fe1435eba"
REPORT_SEARCHES_SHA256 = "a4bcd6a65ba9af0f420c09cc31870836bf37d69b59902fd60b40efd989665898"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_report_text_and_json_are_byte_identical(report_5_7):
    doc, _, _ = report_5_7
    assert _sha256(doc.render_text()) == REPORT_TEXT_SHA256
    assert _sha256(doc.to_json()) == REPORT_JSON_SHA256


def test_report_searches_find_the_pinned_first_hits(report_5_7):
    """The report's searches, in order, return the same first hit or None: the sha256 of the
    JSON list of their maps' entries (None for no map)."""
    _, _, searches = report_5_7
    assert len(searches) == 758
    assert _sha256(json.dumps(searches)) == REPORT_SEARCHES_SHA256
