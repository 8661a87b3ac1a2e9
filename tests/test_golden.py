"""Golden outputs: the digests of these CLI outputs must not move.

Refactors of the shape layer, the engine or the report code must leave
these bytes alone. A change that means to alter an output records the new
digest together with the reason.
"""

import contextlib
import hashlib
import io

import pytest

from polyprime import cli


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cli_output(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("argv, expected", [
    (("sweep", "5", "--format", "json", "--no-timings"),
     "a0218767de8259d5e68ff575046ebd6847998084bfd5851e7e38fb4d0cac7c85"),
    (("verify", "--grid", "###\\n#.#\\n###", "--format", "json", "--no-timings"),
     "358aa4076cf9d8ce58c42fb078bb05da0eca2207cd2406dc89ebf34a52ca602c"),
], ids=["sweep5", "verify_annulus"])
def test_cli_output_digest(argv, expected):
    assert sha256(cli_output(*argv)) == expected
