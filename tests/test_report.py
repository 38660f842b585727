import json

import pytest

from todatopo import report


@pytest.mark.parametrize("rows", [0, 1, 3000])
def test_dump_json_matches_json_dumps(rows):
    # 3000 rows make about 60k encoder chunks, so the text is joined from many batches.
    obj = {"schema_version": 1, "rows": [{"i": i, "v": [i, -i / 3, None, "é"], "ok": i % 2 == 0}
                                         for i in range(rows)], "empty": {}}
    assert report.dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
