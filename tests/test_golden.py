"""Pinned output of the command line: the sha256 of what it prints and writes.

The `simulate` digests below were recorded before the local-training hot
path was rewritten; a change that only makes training cheaper must leave
them all alone.  The task has many one-row shards (lognormal sizes, 200 rows over
30 clients), and the three model variants between them cover dropout on
and off, a softmax model, fractional and absolute batch sizes, two epochs,
`honest_use_all_samples = false`, and both fraction attacks.
"""

from __future__ import annotations

import hashlib
import importlib
import pkgutil

import pytest

import byzweight
from byzweight.cli import main
from byzweight.config import parse_config
from byzweight.experiment import build_task

TASK = """\
[task]
dim = 6
classes = 3
train_samples = 200
test_samples = 60
clients = 30
separation = 3.0

[attack]
scenarios = none, negation_fraction, label_shift_fraction

[seeds]
master = 5
"""

VARIANTS = {
    "mlp_dropout": """\
[model]
kind = mlp
hidden = 8
dropout = 0.2

[training]
rounds = 3
epochs = 2
batch_size = 0.25
honest_use_all_samples = false
""",
    "mlp_no_dropout": """\
[model]
kind = mlp
hidden = 8
dropout = 0.0

[training]
rounds = 3
epochs = 2
batch_size = 4
""",
    "softmax": """\
[model]
kind = softmax

[training]
rounds = 3
batch_size = 0.5
honest_use_all_samples = false
""",
}

DIGESTS = {
    "mlp_dropout": {
        "metrics_ignore_mean_label_shift_fraction.csv":
            "345cebf64322b4ed948b6e9115e24c414e9fec01b9ebfb366abd7dd7cf2dc2c7",
        "metrics_ignore_mean_negation_fraction.csv":
            "e238e8d9862dc73d16b1b13830769bc2b735ddd159d04388ac43a5851c35c49c",
        "metrics_ignore_mean_none.csv":
            "766dcab57a91cdc97e168d8f0e9f7de49ffc0c28ce2fd5b37dcf6729d2fc1551",
        "metrics_ignore_median_label_shift_fraction.csv":
            "5fabb7c26d24c7a0155454ed30654110d42b278bc748a598f9d9d380d13b39c4",
        "metrics_ignore_median_negation_fraction.csv":
            "cdee1f195da2a51c5b91b93473c0f8567cb7abef6383d5a70cabafe57b6efbd8",
        "metrics_ignore_median_none.csv":
            "024670cfa1e7ee73c8ce908d561e5ce4da875edfc73cbb7180eb2816f471057d",
        "metrics_ignore_trimmed_label_shift_fraction.csv":
            "3c39524ae75573aa1b7ee5c4253f08b21a8223301924c1d4e28c97975eabdd52",
        "metrics_ignore_trimmed_negation_fraction.csv":
            "5085ea3d5992dfa5fadeadb88c57bb34156465ec8ea04dddbfb5ebdf775ba925",
        "metrics_ignore_trimmed_none.csv":
            "cadded1280b61b14701344ee31fcd5a308f5d5b6b821340c22ecffbc7cd4f707",
        "metrics_passthrough_mean_label_shift_fraction.csv":
            "bf4272fb25cfae6dc860d11186583019d9e8674832eb9d596f2e1eec57d3f8d3",
        "metrics_passthrough_mean_negation_fraction.csv":
            "bfb8d98a2eaea5e9161bf95a0dc46222b6d6ba36c0f20e2d0b803af53b307330",
        "metrics_passthrough_mean_none.csv":
            "674751fd806702e22d4416df6d4cc0d6bc56ff2fe51144406b2c7ac510cf1c6a",
        "metrics_passthrough_median_label_shift_fraction.csv":
            "38dca0af9e0fb3a64f744d6c0ba5fb0adba7c70502fa890b627f4cdfa527be34",
        "metrics_passthrough_median_negation_fraction.csv":
            "e2bd38f5e84ada7188d9ae7a92f2175e8a04388407151021867759dac8957706",
        "metrics_passthrough_median_none.csv":
            "e9b661e32797fe1d68981bfc345f7d78a8a33c54244b29771651d9a9e0baddbf",
        "metrics_passthrough_trimmed_label_shift_fraction.csv":
            "234f10e3db8e7481fd8f77cd81eeb214c85533bf157039509afc1e44472215a5",
        "metrics_passthrough_trimmed_negation_fraction.csv":
            "2bce645308195f431487297826544d528f654caac83dddda8c2a11d331aeb012",
        "metrics_passthrough_trimmed_none.csv":
            "48d457dadf5235c22d8addb6feeb6bd8e88b4ea4a112d38cefe6556fb1f4e58d",
        "metrics_truncate_mean_label_shift_fraction.csv":
            "6fbef8e094387cf6bfc7bd5befaa924ebcf651b0aea375b08cd0a9883356c10b",
        "metrics_truncate_mean_negation_fraction.csv":
            "8ea9fbe9a7456218eadbc3a2508df063904916eb3876d45f640a45ed760832f1",
        "metrics_truncate_mean_none.csv":
            "7d43ce8ab43674ab3433a5027166104e5bf34eedff920ea18a772ac2b452526a",
        "metrics_truncate_median_label_shift_fraction.csv":
            "7d6e1f04894599e91faad30e82d6f38aaf2e9b16686f691fd04e8f112ea2bfca",
        "metrics_truncate_median_negation_fraction.csv":
            "9c14bac92e720c93ff4254ab44b2f04b89cf361e0db7f64c2493dee7a402c113",
        "metrics_truncate_median_none.csv":
            "b192109a97b9f7dbf5ca0be2d565dc43369774ec361466b8c659c65fe3abca8b",
        "metrics_truncate_trimmed_label_shift_fraction.csv":
            "9955683180b5be94c85e3428842cc26253fa943e67bd77f60638e83c1d60ff33",
        "metrics_truncate_trimmed_negation_fraction.csv":
            "39be8fb4fc4e6fb4aa58d9cabd485fe05d880ffa21afd96a7bc2bb49032f707f",
        "metrics_truncate_trimmed_none.csv":
            "aec5d07630e134d1164179a0ace9e2c294b172aa446e6bf4eaab87fe31f70ed0",
        "summary.csv":
            "51968b019fdd937f50ef34011e416bfc270eae022859ef747af02e686f9468c3",
    },
    "mlp_no_dropout": {
        "metrics_ignore_mean_label_shift_fraction.csv":
            "34ce68628d17617a45b384ccf932d1dafe97b493ac50f3ca5c4688673ca390c8",
        "metrics_ignore_mean_negation_fraction.csv":
            "3278bb97765b65c118873af2bf6087d3a24183e89bd9821a38d9471dbd8d5371",
        "metrics_ignore_mean_none.csv":
            "5033146c5bd9ac5819fce99289144dae00a91c8bbffcc621b522a7b01c14d6b8",
        "metrics_ignore_median_label_shift_fraction.csv":
            "9c1e95198de745943ced065e4453583219c63e9ac41f9758236da7964900c584",
        "metrics_ignore_median_negation_fraction.csv":
            "97befaf8e4858a3d32d33e329ea09081cd71fdf12fb75b4fdb8a34b22cf3e9fd",
        "metrics_ignore_median_none.csv":
            "dc8c168209ed68f5d598e6655be8284b5b17f5f6037503bee5a9dae71eb6c85a",
        "metrics_ignore_trimmed_label_shift_fraction.csv":
            "341b4cfd821c0783439f7a085c9cc446a7ac646ea917d7ec45460a02a28b3dd2",
        "metrics_ignore_trimmed_negation_fraction.csv":
            "b50ecbc3b8fbe25965a0e83dd4487932cfe94b8f55a7e76305d4826e17158f34",
        "metrics_ignore_trimmed_none.csv":
            "0a0208234168f4e0456c9d6182756fea686681f95e9315d76b895871333e380d",
        "metrics_passthrough_mean_label_shift_fraction.csv":
            "c8b8c52aa37da15ea41ab73d64f447fa02d5f3e7cc7522e072d2ec6c9180da2f",
        "metrics_passthrough_mean_negation_fraction.csv":
            "5a13d8157a530b74a13cca7161a9a8fd81c4c8f4b30ae64c4165913218560da0",
        "metrics_passthrough_mean_none.csv":
            "e7114a988c118877d2ee55a31cb9fd75e472baf8dd2833a4ed61b1447086c39a",
        "metrics_passthrough_median_label_shift_fraction.csv":
            "f203474d8a464e1bf3525a4833861de981087057c133afdd73fa61c9c27101a5",
        "metrics_passthrough_median_negation_fraction.csv":
            "8623ef6e9d60e1c84a85ee765ea87f20f524ee5ba40b52b8e25fd7af619c290b",
        "metrics_passthrough_median_none.csv":
            "c2ad98330c414a99fbb8f2b0157c49bb7d28b60df6eb633c75af38bf07af43a8",
        "metrics_passthrough_trimmed_label_shift_fraction.csv":
            "2608af43a7f142b9a24050d18559e1541bae402a394f7a16e8c450115588b693",
        "metrics_passthrough_trimmed_negation_fraction.csv":
            "8623ef6e9d60e1c84a85ee765ea87f20f524ee5ba40b52b8e25fd7af619c290b",
        "metrics_passthrough_trimmed_none.csv":
            "dd471312fbdbc4b1540e8d7c5852224af750d33698071ad451908a25602da560",
        "metrics_truncate_mean_label_shift_fraction.csv":
            "448c2aafa40532350e0017fcbd2a339cb90fb94fbb11fba967ed184fe54fd27e",
        "metrics_truncate_mean_negation_fraction.csv":
            "94d0771d01383aed0276cbcf180032715a43a0015fe211e372b891c12e9d2e52",
        "metrics_truncate_mean_none.csv":
            "7d1a9fac1324c3a4e6a00d319f9afdec276fd4e1331b6b5cf6b810ffb1f9799b",
        "metrics_truncate_median_label_shift_fraction.csv":
            "a6ab222f5a9a2a323e0eaaef96c08ccbd4209a282923321a0d76834eb8944dd1",
        "metrics_truncate_median_negation_fraction.csv":
            "18a3af39967b47d414e5fcb80a35cf2989981197d3effcc41f7e7177cb232a02",
        "metrics_truncate_median_none.csv":
            "d800b45c5c04567e7f06e8ca610fb475ad36488cb70ac1e042fa19fe19438195",
        "metrics_truncate_trimmed_label_shift_fraction.csv":
            "78fa747274be992713f9a9739877f58e434b50f948a77c585b6633b6393ce444",
        "metrics_truncate_trimmed_negation_fraction.csv":
            "a8238e2fa4938aba14abe30f297be7808772128fa33feb09de7a347915857dd9",
        "metrics_truncate_trimmed_none.csv":
            "0f61393a74724442391dd655b0b2a91b45b37f6ea7489ff80ed48ae639199621",
        "summary.csv":
            "3b3b55b556b33d8a2ee06a7fb619fb41cb30c515845d06bfddd713271185cb60",
    },
    "softmax": {
        "metrics_ignore_mean_label_shift_fraction.csv":
            "795af9f303608cfded2d4fbd453c28b0742fdcb80d0f6cd00a17c0286753d86b",
        "metrics_ignore_mean_negation_fraction.csv":
            "b16451b7f873572791aeddb46e82c2680feb13dcbcc5a564984247defc3a5c82",
        "metrics_ignore_mean_none.csv":
            "d145abaaa5744c07a0298c4302fccd66d1c975d6b745a6291eca0cbf9e5005fa",
        "metrics_ignore_median_label_shift_fraction.csv":
            "26f44c06103f8d92b65bfbd142a91c81a34a38a426bda2994a85c5adc1a675ee",
        "metrics_ignore_median_negation_fraction.csv":
            "638bb46dcfcdf4f3a3fc239a0ffa4e8ce9a170e3ff9d75ebcb60294fcca14189",
        "metrics_ignore_median_none.csv":
            "7ab00e5550452c383a5aa1a2fcc7408bc1198b39d6ad8d267e2dd1feeb18ba23",
        "metrics_ignore_trimmed_label_shift_fraction.csv":
            "a72c153f210c4821f8185e59d2c103f11d526a30612b6419bb087fc328635521",
        "metrics_ignore_trimmed_negation_fraction.csv":
            "f53653c12d5a6f4d62d09a279c1ab62c09a95c324ba77ac441ab0ca16a123815",
        "metrics_ignore_trimmed_none.csv":
            "0a3853abea5b4a1d710a015dd0764a11227614888d9ec738bf97e12fa3924ae7",
        "metrics_passthrough_mean_label_shift_fraction.csv":
            "2dd5a1e5bbc1a1f4c92fc88fe15b680db5197fcaf3eeb4867b81c3d827b33eb1",
        "metrics_passthrough_mean_negation_fraction.csv":
            "118ac7971e6ea3177171304b218a140c296f7f6694677b49e7ed913ae786a82a",
        "metrics_passthrough_mean_none.csv":
            "c31905107a7c24c4844daa53e1db8808b70fe8d20c8b1a62ade9a09dc634d67b",
        "metrics_passthrough_median_label_shift_fraction.csv":
            "3b7a0702b383542d9aae0a0812f76261c209b740fae949521f861b37a51e21f1",
        "metrics_passthrough_median_negation_fraction.csv":
            "6362a7ea142d1b034978811b0797076ddd1dd89272754a5b36ebf5020e8bec4d",
        "metrics_passthrough_median_none.csv":
            "1e1d604a42ed07a2d1dd80104695c2cb5628d083022f4f1d1cffcb3bcf5b2fa5",
        "metrics_passthrough_trimmed_label_shift_fraction.csv":
            "9d9dd411685effcfe2d93cb39e6d6b859d55a13ac7e39ccb25d88bdf3a5b196c",
        "metrics_passthrough_trimmed_negation_fraction.csv":
            "6362a7ea142d1b034978811b0797076ddd1dd89272754a5b36ebf5020e8bec4d",
        "metrics_passthrough_trimmed_none.csv":
            "4ce22e4b9fe256d468e0385fb493af341905f7c13322276f4335d353a9319cbe",
        "metrics_truncate_mean_label_shift_fraction.csv":
            "e3b0921d9a2e6267fc17a75c362b45d57014cbdd1cbd93b734865eb7d8856b5e",
        "metrics_truncate_mean_negation_fraction.csv":
            "37a13a01efd309e50a95f26321c6824ab8e0195fb935a19f71a93bdd489fc74c",
        "metrics_truncate_mean_none.csv":
            "0b5ab6df956f32d56b463a891f9190af8c80d5acfeb170d9e98d82b939359485",
        "metrics_truncate_median_label_shift_fraction.csv":
            "4e7ea069e37fabbc5b1021d6b2d31cd70fb41c183a8992803b8d7ec87f291515",
        "metrics_truncate_median_negation_fraction.csv":
            "6362a7ea142d1b034978811b0797076ddd1dd89272754a5b36ebf5020e8bec4d",
        "metrics_truncate_median_none.csv":
            "71384e94dd72611cf069db0502e388606752531af21a78592db7caf1adcc61eb",
        "metrics_truncate_trimmed_label_shift_fraction.csv":
            "6934d0c62c03873653cdc2eed44173c837d1d796c37c4b212f33b2840c8a5d1f",
        "metrics_truncate_trimmed_negation_fraction.csv":
            "495b364895d86a98682615366f0a6e6612e8e3818d3e1dcc374f4043583c22e5",
        "metrics_truncate_trimmed_none.csv":
            "b0adb1e219abefebead6569b9fe60e1df9ba31cb8d6aa6e61731856feae9ade9",
        "summary.csv":
            "f1d1d63dc1a527c3d1a50b64ef3f76d4421f13c35300be2672d2fee85578765a",
    },
}


def test_task_has_one_row_shards():
    (_, sizes), _ = build_task(parse_config(TASK))
    assert (sizes == 1).sum() >= 20


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_simulate_output_pinned(tmp_path, variant, jobs):
    config = tmp_path / "config.ini"
    config.write_text(TASK + VARIANTS[variant])
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out), "--jobs", str(jobs)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert got == DIGESTS[variant]


# One weight file for the tradeoff and certify goldens, read through the
# line loop: shuffled counts with ties and zeros, a comment line, CRLF endings.
DECLARED = [7, 0, 120, 3, 3, 15, 0, 1, 42, 3, 900, 7, 2, 0, 15,
            5000, 1, 8, 3, 64, 7, 0, 2, 31, 250, 1, 7, 12, 3, 1]
WEIGHTS = ("# declared counts, one per client\r\n" + "".join(f"{v}\r\n" for v in DECLARED)).encode()
CERTIFY = ["certify", "--weights", "{weights}", "--k", "2000", "--alpha", "1/5",
           "--alpha-star", "1/2", "--delta", "0.05", "--seed", "3", "--out-dir", "{out}"]

TRADEOFF = "8918386d7215f216c56f9838cf732d8f7fbece81231b79b049ab6c007112e775"  # stdout and tradeoff.csv
CERTIFIED = "7ddb3b9102d1193eab0081ab34a890706deb0668cc06da514454c7fa4fb7a119"  # stdout and certificate.csv
REFUSED = "2af2088504d7181fdeb0e94bdbc15b98bc54c9aecf7d61706f6877883336eda5"

# (argv, exit code, stdout digest or None, {written file: digest})
CLI_RUNS = {
    "tradeoff": (["tradeoff", "--weights", "{weights}", "--alpha-star", "1/2"], 0, TRADEOFF, {}),
    "tradeoff_out_dir": (["tradeoff", "--weights", "{weights}", "--alpha-star", "1/2",
                          "--out-dir", "{out}"], 0, None, {"tradeoff.csv": TRADEOFF}),
    "certify_certified": (CERTIFY + ["--u", "7"], 0, CERTIFIED, {"certificate.csv": CERTIFIED}),
    "certify_refused": (CERTIFY + ["--u", "15"], 4, REFUSED, {"certificate.csv": REFUSED}),
    "bound": (["bound", "--config", "{config}", "--u", "1000", "--seed", "2"], 0,
              "f056b7981f9c0a0357c51d8a2dc201be36edcbdbc1d10a32313fd51405000817", {}),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_output_pinned(tmp_path, capsys, name):
    argv, code, stdout, files = CLI_RUNS[name]
    paths = {"weights": tmp_path / "w.txt", "config": tmp_path / "c.ini", "out": tmp_path / "out"}
    paths["weights"].write_bytes(WEIGHTS)
    # bound builds the clients of the first scenario, here negation_fraction
    paths["config"].write_text(TASK.replace("none, ", "") + VARIANTS["mlp_no_dropout"])
    assert main([a.format(**paths) for a in argv]) == code
    out = capsys.readouterr().out
    if stdout is not None:
        assert sha256(out.encode()) == stdout
    written = {p.name: sha256(p.read_bytes()) for p in sorted(paths["out"].glob("*"))}
    assert written == files


def compensated_sum(terms, start=0):
    """The builtin sum as Python 3.12 computes it: exact over ints, and over
    floats with a Neumaier compensation term added at the end."""
    total, compensation = start, 0.0
    for x in terms:
        if isinstance(total, int) and isinstance(x, int):
            total += x
            continue
        before = float(total)
        total = before + x
        big, small = (before, x) if abs(before) >= abs(x) else (x, before)
        compensation += (big - total) + small
    return total + compensation if isinstance(total, float) else total


def test_outputs_do_not_depend_on_how_sum_adds_floats(tmp_path, capsys, monkeypatch):
    # Python 3.12 made the builtin sum of floats compensated, and the package
    # allows Python 3.10 on: with that sum in every byzweight module, `bound`
    # and a `simulate` grid print and write their pinned bytes
    assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert compensated_sum([2**63, 2**64, 1]) == 2**63 + 2**64 + 1
    for module in pkgutil.iter_modules(byzweight.__path__):
        module = importlib.import_module(f"byzweight.{module.name}")
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    for name in ("bound", "simulate"):
        (tmp_path / name).mkdir()
    test_cli_output_pinned(tmp_path / "bound", capsys, "bound")
    test_simulate_output_pinned(tmp_path / "simulate", "softmax", 1)


# The benchmark's two training grids at seed 1, as its workloads write them:
# 100 MLP clients over three preprocess modes, and 2 000 one-to-ten-row
# softmax clients over two.  One digest covers every file, each name then its bytes.
GRID = """\
[task]
clients = {clients}
train_samples = 20000
test_samples = 2000
{task}rounds = {rounds}
eta = 0.3
epochs = 1
[preprocess]
modes = {modes}
alpha = 1/10
alpha_star = 1/2
[aggregator]
kinds = mean, median, trimmed
beta = 0.1
[attack]
scenarios = none, negation_fraction
[seeds]
master = 1
"""
BENCHMARK_GRIDS = {
    "train-mlp": (dict(clients=100, rounds=3, modes="passthrough, truncate, ignore",
                       task="separation = 6.0\n[model]\nkind = mlp\nhidden = 64\ndropout = 0.0\n"
                            "[training]\nbatch_size = 100\n"),
                  "a2009b25a69bdb0581db1821102fdf737b753c0c11a54a22f8ab8002379aacb1"),
    "train-crowd": (dict(clients=2000, rounds=2, modes="passthrough, truncate",
                         task="[model]\nkind = softmax\n[training]\nbatch_size = 1.0\n"),
                    "34c426b48dbb128d47f3485bea9095735dbe086cc6b969700a1c4e3d955938d7"),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_GRIDS))
def test_benchmark_grid_pinned(tmp_path, capsys, name):
    fields, digest = BENCHMARK_GRIDS[name]
    config, out = tmp_path / "grid.ini", tmp_path / "out"
    config.write_text(GRID.format(**fields))
    assert main(["simulate", "--config", str(config), "--out-dir", str(out), "--jobs", "1"]) == 0
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode() + p.read_bytes())
    assert len(list(out.iterdir())) == 1 + 6 * len(fields["modes"].split(","))
    assert h.hexdigest() == digest
