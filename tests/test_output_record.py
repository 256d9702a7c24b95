import json

from output_record import RECORD, compute_record


def test_default_outputs_match_the_committed_record():
    # Exact: every count, flag, exit code and sweep CSV byte (see output_record).
    assert compute_record() == json.loads(RECORD.read_text(encoding="utf-8"))
