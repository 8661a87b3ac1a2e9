"""Golden outputs: the digests of these CLI outputs must not move.

Refactors of the shape layer, the engine or the report code must leave
these bytes alone. A change that means to alter an output records the new
digest together with the reason.
"""

import contextlib
import hashlib
import io
import json

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


ANNULUS = "###\\n#.#\\n###"

# (subcommand argv, text digest, json digest) on the annulus
ANNULUS_DIGESTS = [
    (("parse",),
     "e0b6a97b834036f07fdda61898222b87861b8f9d1f2d9830129ac17f3fe7e851",
     "8b1247fd0ac041075c8b30011c3ec30e79575d9999e20821685d8ce2d5fbdb89"),
    (("check-simple",),
     "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0",
     "0ef6d68687c21c1b48839afedd93e3e271bf0557fbb0c7d8bedd4af91899705f"),
    (("graph",),
     "d50361f3e8a2902e44f60cd36ef35e1ef543e985c45828d144ff0ae3b55348f0",
     "509e33d67008656241d4d8c6bcca924a204bf922a4a410b790d257f63de34e82"),
    (("gens",),
     "26a76a449c871f887ee711c3a8ead504cd764db4a7ef893e354b5e7bf1c9211a",
     "8981eedd5423a4cc727b86f4edc7e19966f323bd0172f48f2cb148c951543f58"),
    (("gb",),
     "4c468c3c0b7d1d501a7317ea99ce05f4efdbacab7ee4befb91fed8a22c960c97",
     "b368731058c7268b19a7b916f13bc3b8683d7fa89e9266a4ec157e5105e46996"),
    (("toric",),
     "e62f800472e0b1c9293e22669f5771813511e8e208dbcda0acd334e2569c01e4",
     "5aacd6f9068ef31048015fc630078572e11c4664b75635a8ef6375739bb7cfab"),
    (("cycles",),
     "56cfdb82af034a47b457c94cff5c9bec3a4b2ab400b3376fc3c49cbb3143899f",
     "9c3db56f55cabf690d93b6ecd05a75ae5aa664889aa7c80194019415d504a744"),
    # elimination under grid orders other than the default
    (("toric", "--order", '{"kind":"lex","ranking":"column-major"}'),
     "2f048186f82cdd5847bddbaed3b2e71e3ed1fea58be1db816b5ea4bf4e012b43",
     "176292cfd64b56a2e80a1cb68bb54ec0c97ec2acc55d3b9d13487c908b405cff"),
    (("toric", "--order", '{"kind":"deglex","ranking":"diagonal"}'),
     "5790d0431320d85796e26328e3f2d141ff4c592f37800a0bcdd3837c05c45e14",
     "f6d531ef777684d58703d81aab154f04d27debcd790649adf45b6a063cc21e31"),
    (("toric", "--order",
      '{"kind":"block","blocks":['
      '{"kind":"lex","ranking":["x(0,3)","x(1,3)","x(2,3)","x(3,3)","x(0,2)","x(1,2)","x(2,2)","x(3,2)"]},'
      '{"kind":"degrevlex","ranking":["x(0,1)","x(1,1)","x(2,1)","x(3,1)","x(0,0)","x(1,0)","x(2,0)","x(3,0)"]}]}'),
     "19a1d287a0811a9b01314992e62ced7504eeb422e6f24c7f02181bbe6762b56e",
     "7aeb54e29ed75e242e6c0910bac04882ca97385b3efb5c99a93906eb68d6b1f9"),
]


# (grid, text digest, json digest) of `verify --no-timings` on the other
# reference shapes of benchmarks/bench_kernel.py; verify searches for a
# quadratic order, so these pin the orientation of every engine element
VERIFY_DIGESTS = [
    ("##\\n##",
     "b6068d1e42ba9ec439d54a1ef12e8ee379c79582935960410ac6fb639729bc24",
     "576b1ece2c2a554daffbf662b144c1b8f62e5d15cf7ba5a6ed2403146504f10f"),
    ("#######",
     "bd421c5e8d8f02b25df6258c2e7edfe7d5953936d658eb7565c06a58aac3cbd1",
     "f90588b6c7708ded06a037d57dc374b411f4cd959cb127adaaa2ce7e37ed5466"),
    ("#..\\n##.\\n.##\\n..#",
     "5c604be4c360bfd3ac77ce31de3ed3b0cc0a3b834a078a7218a488ce01557011",
     "61fbc8f9d32254fff7b01ef83fd83b5b861c5631a0d08dcf5229fc69a76709ee"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("grid, text_digest, json_digest", VERIFY_DIGESTS,
                         ids=["square2", "line7", "staircase6"])
def test_verify_reference_shape_digest(grid, text_digest, json_digest, fmt):
    out = cli_output("verify", "--grid", grid, "--format", fmt, "--no-timings")
    assert sha256(out) == (text_digest if fmt == "text" else json_digest)


def annulus_id(command):
    """The subcommand, then the kind and the ranking name of its --order, if any."""
    name, *rest = command
    if not rest:
        return name
    spec = json.loads(rest[1])
    return "-".join([name, spec["kind"]] + ([spec["ranking"]] if "ranking" in spec else []))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command, text_digest, json_digest", ANNULUS_DIGESTS,
                         ids=[annulus_id(c[0]) for c in ANNULUS_DIGESTS])
def test_annulus_subcommand_digest(command, text_digest, json_digest, fmt):
    name, *rest = command
    out = cli_output(name, "--grid", ANNULUS, *rest, "--format", fmt)
    assert sha256(out) == (text_digest if fmt == "text" else json_digest)
