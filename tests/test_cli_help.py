"""The parser's own output, pinned: help texts and usage errors.

Every ``--help`` (the program, each group and each op) is compared by the
sha256 of its stdout, and the usage errors by their exact stderr, with the
exit code each time.  The texts come from argparse, so a change to how the
parser is built (say, building only the invoked group) must leave them alone.
"""

import hashlib

import pytest

from schreier_lab.cli import main

# sha256 of stdout at 80 columns; each exits 0 with empty stderr.
HELP_SHA256 = {
    "--help": "4dfea2795854552d8669239871c26c92a46cfd98172d8d2ee9bfb7149e0d2ecc",
    "ord --help": "b3ac1f92ba2770d6134752f033fe6b46a2ae45d4521cd2de9de43219abfc873c",
    "ord parse --help": "093bcf5418ebb395ad9afb0104de275dc037f36d6479bfe0889efa7847af683c",
    "ord classify --help": "305f09721d877c36f289128a5c978c49540d817007803ea5628004f48ad1ef6d",
    "ord fseq --help": "83ee322d04e3f19eda064f7cccd3717069e870cc520e354e87f23215910b4299",
    "schreier --help": "81c8186a9af4c8ff713a8a76f3ecc0d3699ae3b54f05abdf64b43a547be47f6b",
    "schreier member --help": "be091ecb3f6cf4e3e48d9fb15b8c398fae4491c294cf742f92af637720d51d3c",
    "schreier oracle --help": "f5d30fc0575a444561806e335be44916047b023a539d5d5aed2e1bbd806cd64e",
    "schreier image --help": "ab3883b328cdae8bd6ea02626e8a425ad069bef5c5876809363cce4e02ddf49b",
    "schreier trace --help": "a4e16878be91f266ad026296328fb6c8323aa9e0ceb476a5a0fea73fc6831520",
    "schreier enum --help": "1f706517b0f76c1805c0c7489e08c36521b9c39edefda868c065f7cb4088903d",
    "schreier count --help": "a322da418a410ee3b602918d49a526f1a65502ad3763007fb1b55dea1039763e",
    "schreier threshold --help": "2104656159073cf6b8936aa738bd13cae062805cba5d9ef61c882ec88698f18d",
    "avg --help": "6bd7acf001bd6f7b391dbc96cdf66ca1a089bd1569df6dbab6cd4b5f9ec539e3",
    "avg vector --help": "eeff0aad06fdbe19c517761b1a00843ecdf69614b35f73aa8bb8eacc7db662aa",
    "avg size --help": "9bf2dd7641df0b2134b74d653e03245279a3d508a9ad4a0a1650bf6e350c5441",
    "avg apply --help": "5b1a90d5912385ba7eb85d44979ebe156a094d535f2abcc04379983d3977ee5e",
    "avg pair-sum --help": "2d4085e445d66ee6f2f2d87511f3d887107a5c1ce561e83869ed9f0a234b4ca7",
    "avg validate --help": "5474a15f6b21c898ba1e1411536a072cfc1ee700e989b5de825ac16f69eda58a",
    "avg nibcc --help": "f099f3f655b942263acb086944c9ec44144f3b19ab2169d42de2bbca475246eb",
    "avg reweight --help": "e74b3754736a7c363571f99453e6f132e33d33b7571ba3a485be40c70d08ff8d",
    "norm --help": "29684278ea724eb8dc35d1b1b8082657d866955748f05a514756e5d6a288769f",
    "norm eval --help": "addc4415b847a6cb7430a7a95ee83abaf4b6ebffaf72d6a36c79d1bd3505c8f2",
    "norm oracle --help": "81834100fcddb74deb3f8bd5294b605b3d63cda5fe091b827fc43643d3a60212",
    "norm functional --help": "bb232342156890e2f6c5965b7fabb4e551ae43e32d7a4e40c4e0147e4b3799f9",
    "quantity --help": "5fb54903ab20920c8bd25f163873510d183c5dff1cd076a8d7c289370b1b158f",
    "quantity ca --help": "1f9ab9eb32e0f68c9e6a8c31eed9a4f8249d2363af67673eb797278a272b2f47",
    "quantity cca --help": "a3a64a0590385c8b6276d9b5edef77c7242cbd2641a171c0335e4b75bf2b9ec3",
    "quantity cca-xi --help": "a4e17ae46a19363049c84bb895a4d21d176182c01b050bbbdda5c7b962d75f19",
    "quantity cca-tilde --help": "159bd2a02eeca3d270202286c70b614a41333474881cedd025bc6aabe0d6d1e8",
    "quantity cca-tilde-sup --help": "73cf933c0da06a0f570fb778edcee66848a6c235d012984d45021ab488911bb4",
    "quantity sm --help": "3820e7e9ed6ef92de634d281918ce9d316d365b243968c943dedac268cce2c3b",
    "quantity fdelta --help": "ddfebf950eff6380969265b4e6bb4da751059fe9bf0e802c8743d972b10f6bab",
    "quantity large --help": "0fccc5201f4f8e9342a08e659ed7f74b53531a4ad3915c8fc66c2040753e3fba",
    "quantity prop-formula --help": "70cdc89cd42202e24098d575f65e361a4f552937dcf4d13e73050b689e64975d",
    "verify --help": "1f2b2ae3b2fab9b2fffa80e82288e1c5ace38c8b3374cb0e76e4b7eeadbc1921",
    "verify example-schreier --help": "83a755dd85cf3e25fefdf597a1feb1f51618e221610196afa99ef39ca52b1c2c",
    "verify example-star --help": "80ede00051bbd2647627bc6074f2954ce56df305611e4812ab0aab479ec3e928",
    "verify prop-formula --help": "6e4a136a2f28d782d47c0edc5baa1cb06d85da46281476861633b6314649a92a",
}

_PROGRAM_USAGE = "usage: schreier-lab [-h] {ord,schreier,avg,norm,quantity,verify} ...\n"

USAGE_ERRORS = {
    "": _PROGRAM_USAGE
        + "schreier-lab: error: the following arguments are required: group\n",
    "nope": _PROGRAM_USAGE
        + "schreier-lab: error: argument group: invalid choice: 'nope' (choose "
          "from 'ord', 'schreier', 'avg', 'norm', 'quantity', 'verify')\n",
    "ord nope": "usage: schreier-lab ord [-h] {parse,classify,fseq} ...\n"
        "schreier-lab ord: error: argument op: invalid choice: 'nope' (choose "
        "from 'parse', 'classify', 'fseq')\n",
    "ord parse": "usage: schreier-lab ord parse [-h] [--format {json,text}] "
        "--text TEXT\n"
        "schreier-lab ord parse: error: the following arguments are required: "
        "--text\n",
    # A mistyped op under a group with a default op is named against its ops.
    "avg bogus --xi 1 --n 2": "usage: schreier-lab avg [-h]\n"
        "                        {vector,size,apply,pair-sum,validate,nibcc,reweight}\n"
        "                        ...\n"
        "schreier-lab avg: error: argument op: invalid choice: 'bogus' (choose "
        "from 'vector', 'size', 'apply', 'pair-sum', 'validate', 'nibcc', "
        "'reweight')\n",
    "norm evl --space l1 --vec {}": "usage: schreier-lab norm [-h] "
        "{eval,oracle,functional} ...\n"
        "schreier-lab norm: error: argument op: invalid choice: 'evl' (choose "
        "from 'eval', 'oracle', 'functional')\n",
}


def _run(capsys, monkeypatch, command: str):
    monkeypatch.setenv("COLUMNS", "80")    # argparse wraps to the terminal
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_text_is_pinned(capsys, monkeypatch, command):
    code, out, err = _run(capsys, monkeypatch, command)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command], out


@pytest.mark.parametrize("command", sorted(USAGE_ERRORS))
def test_usage_error_is_pinned(capsys, monkeypatch, command):
    code, out, err = _run(capsys, monkeypatch, command)
    assert (code, out, err) == (2, "", USAGE_ERRORS[command])
