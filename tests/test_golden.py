"""Golden digests of every FIGURES.md artifact.

Each FIGURES.md command, plus the one-point reports whose sub-evaluation
fails (``report --t_R 1e100``, ``1e40``, ``1e60`` and ``--pressure
1e300``), runs in-process through ``cli.main``.  The test compares the
exit code, the stdout summary line and the sha256 of every file written
with the table below.

The digests were taken with Python 3.11.7 and numpy 2.4.6 (scipy 1.17.1)
on x86-64 Linux.  They pin that libm and numpy build: numpy's array
``arctan2`` differs from ``math.atan2`` in the last bit on some inputs on
AVX-512 hosts, and another build may move a printed digit.  A change
that moves an artifact on purpose updates its digest here and says in
CHANGES.md which digest changed and why.
"""

import contextlib
import hashlib
import io

import pytest

from zenograv import cli

# (command line, stdout summary up to its output paths, {file: sha256})
GOLDEN = [
    ("pattern",
     "probes=3160  hits=0  failed=0  max|proj|=0.0001288  "
     "closed-form=0.000192",
     {"pattern.csv":
      "45ca72d63f9ddbccd922b66f6c4e62dd2e5b07408ac502c88a19075ac54da813",
      "pattern.svg":
      "35990b790ad916f439fa86c00b9873fb23eb632e89406daa2c54117fe362abdf"}),
    ("pattern --d 0",
     "probes=3160  hits=0  failed=0  max|proj|=0.000192  "
     "closed-form=0.000192",
     {"pattern.csv":
      "51b1f41d88c2b560d123da0150534fd3f3a2091049ebdb4ebb933a0e2ca066d1",
      "pattern.svg":
      "bf535d34c9e84db7fea4a94add07f3982e9dde1655a5ec09b8e9491812f0c1d2"}),
    ("scatter --l 1e-5",
     "theta=0.000128577 rad  hit=False  samples=87  steps=86  "
     "rejected=29  rhs_calls=692  source=none",
     {"trajectory.csv":
      "f80ff912df10c2205644dc67a0dd5657a3bcf33af0da7c52d4498921c1af77bf"}),
    ("scatter --collapsed left",
     "theta=0.000147493 rad  hit=False  samples=87  steps=86  "
     "rejected=28  rhs_calls=686  source=left",
     {"trajectory.csv":
      "d80d5497031e6df9c0e6da53c9622caea0e841d2fa106fc9408cbd9a95183266"}),
    ("scatter --collapsed right",
     "theta=0.000147493 rad  hit=False  samples=87  steps=86  "
     "rejected=28  rhs_calls=686  source=right",
     {"trajectory.csv":
      "2640b3ad0a8693f6a0aecc19f75162e5b53855dfad1a2cbff3558a21f89f6eb7"}),
    ("scatter --collapsed random",
     "theta=0.000147493 rad  hit=False  samples=87  steps=86  "
     "rejected=28  rhs_calls=686  source=right",
     {"trajectory.csv":
      "84808ab212e96a5f160b85766059488bf8b797239e64339ae32a04a05ea73ff1"}),
    ("eigen",
     "E0=-1e-47 J  E1=-8.864e-48 J  label=delocalized-triple-well",
     {"eigen.csv":
      "b3abc46c9a6098af518e5b0fcbde96c7c50de2d6fefd83835108e1297ac0b8a5",
      "eigen_summary.json":
      "9885a9e95c673c8b8ab5bb5e6f41943d971f536b343538c2aa08059026969ad3"}),
    ("feasibility --axis1 t_R --a1_min 1 --a1_max 100 --axis2 R "
     "--a2_min 1e-5 --a2_max 1e-5 --n2 1",
     "grid=16x1 over (t_R,R)  pass=2/16",
     {"region.csv":
      "436e376ba929094715b613e3fb4fc4b248ad53a8fca2846362cfe090c7dd181e"}),
    ("feasibility --axis1 R --axis2 v --a2_min 1e-7 --a2_max 1e-5",
     "grid=16x16 over (R,v)  pass=0/256",
     {"region.csv":
      "22a37dd8a346a6413a53c876533eb3f163c9a8d1fd2c9bda843e189e84f45b14"}),
    ("decoherence --pressure 1e-12",
     "R points=25  p=1e-12 Pa  T=1.0 K",
     {"decoherence_sweep.csv":
      "72a830761897aebe30ffe60b2dfe5c38dcf35ad8a67feac91a79825b6bcc70fa"}),
    ("decoherence --pressure 1e-15",
     "R points=25  p=1e-15 Pa  T=1.0 K",
     {"decoherence_sweep.csv":
      "41d2e25aa83bdad74d3ed1a3c5987e7ac211527918b36eb99449bf4906cbb447"}),
    ("report",
     "pass=True  theta_max=0.0001211 rad  t_total=57.94 s  "
     "gamma_required=60.57 1/s  KE=3.121e-12 eV",
     {"report.json":
      "8b9790ec4ba60dbbcb83537adce8c57b4d893cd9fc435f75eddb94734b64d790"}),
    ("zeno",
     "freeze_time=1 s  N=100  tau points=9",
     {"zeno_scan.csv":
      "9b80e36d82c7efa7ee77a6d8383b6d58e7a6d927c352f2a3e3673204f680369b"}),
    ("feasibility --axis1 m_probe --a1_min 1e-19 --a1_max 1e-17 "
     "--axis2 R --a2_min 1e-6 --a2_max 1e-4",
     "grid=16x16 over (m_probe,R)  pass=64/256",
     {"region.csv":
      "3a500de262787bc450ae1ebdd8832c71ba12d3d9dc5a26af385abaa93cbb8818"}),
    ("feasibility --axis1 p --a1_min 1e-15 --a1_max 1e-9 --axis2 R "
     "--n2 1 --a2_min 1e-5 --a2_max 1e-5",
     "grid=16x1 over (p,R)  pass=5/16",
     {"region.csv":
      "bca9803673883cc895cdb711d5ab9357a0f7824644c92395e3ff5c58f2b91108"}),
    ("report --t_R 1e100",
     "pass=False  theta_max=3.142 rad  t_total=nan s  "
     "gamma_required=60.57 1/s  KE=3.121e-210 eV",
     {"report.json":
      "e69e331f6830a830c72f2ca48f08a5000024bea508d11db02eba76e99f459b9b"}),
    ("report --t_R 1e40",
     "pass=False  theta_max=3.142 rad  t_total=nan s  "
     "gamma_required=60.57 1/s  KE=3.121e-90 eV",
     {"report.json":
      "d0101f2b645ce9adb74a3616b46b7075970a50e61ea91b8511e1bc869d25933d"}),
    ("report --t_R 1e60",
     "pass=False  theta_max=3.142 rad  t_total=nan s  "
     "gamma_required=60.57 1/s  KE=3.121e-130 eV",
     {"report.json":
      "d393a80c38b0af715b31bea5249d6dace8d7d59fa2aa183733a0379b86b6c04a"}),
    ("report --pressure 1e300",
     "pass=False  theta_max=0.0001211 rad  t_total=57.94 s  "
     "gamma_required=60.57 1/s  KE=3.121e-12 eV",
     {"report.json":
      "0111e80af2a2126d70136704369bb388215fd7e3bc3c47164fa313531224ec99"}),
]


@pytest.mark.parametrize("command,summary,digests", GOLDEN,
                         ids=[row[0] for row in GOLDEN])
def test_golden_digest(tmp_path, command, summary, digests):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split() + ["--output-dir", str(tmp_path)])
    assert (code, err.getvalue()) == (0, "")
    paths = ", ".join(str(tmp_path / name) for name in digests)
    subcommand = command.split()[0]
    assert out.getvalue() == f"zenograv {subcommand}: {summary}  -> {paths}\n"
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.iterdir())} == digests
