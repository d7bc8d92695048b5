"""The report oracle: ``nilj report --primes 5,7`` must stay byte-identical."""

import hashlib

REPORT_TEXT_SHA256 = "f321f9b157ccad228c6426665485b55457198544d51bc0e4cfa922cec01dbd58"
REPORT_JSON_SHA256 = "d91b38c24dc3a47e060534750bc5b2ec9003e807b254c3a5c4610c5fe1435eba"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_report_text_and_json_are_byte_identical(report_5_7):
    doc, _ = report_5_7
    assert _sha256(doc.render_text()) == REPORT_TEXT_SHA256
    assert _sha256(doc.to_json()) == REPORT_JSON_SHA256
