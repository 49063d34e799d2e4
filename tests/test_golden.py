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
      "2866ff55230b2f82a309926486359a4df21bff49b36ec8161e7901beb73489f4",
      "pattern.svg":
      "9a2663efc70a369261084049a1e06dc79c13bfcc3269aa10586665ac7f1c0519"}),
    ("pattern --d 0",
     "probes=3160  hits=0  failed=0  max|proj|=0.000192  "
     "closed-form=0.000192",
     {"pattern.csv":
      "4e28deecef868991f62645c6fb8f6f25eeb08905430c43db718a47ece17ebd00",
      "pattern.svg":
      "82726b0c3f09c96345a74928ba606665fbc0a7b6a35c0a18f19d694c2586ce0d"}),
    ("scatter --l 1e-5",
     "theta=0.000128577 rad  hit=False  samples=87  steps=86  "
     "rejected=29  rhs_calls=692  source=none",
     {"trajectory.csv":
      "e70af32ceb5771cda7dffcb6bf8c5750eb5a5dff9417f9e8408a3d1a4079828f"}),
    ("scatter --collapsed left",
     "theta=0.000147493 rad  hit=False  samples=87  steps=86  "
     "rejected=28  rhs_calls=686  source=left",
     {"trajectory.csv":
      "f5916054bf19b546c21c7b621945f3b0beb0188a9531affe1cc6014ab80fa4ad"}),
    ("scatter --collapsed right",
     "theta=0.000147493 rad  hit=False  samples=87  steps=86  "
     "rejected=28  rhs_calls=686  source=right",
     {"trajectory.csv":
      "f3442e0b8ae2c8beba6ee4c281ffb48688df0ca0ef477141a5d2dfe0aa7b3060"}),
    ("scatter --collapsed random",
     "theta=0.000147493 rad  hit=False  samples=87  steps=86  "
     "rejected=28  rhs_calls=686  source=right",
     {"trajectory.csv":
      "7e41f3e66df600553000b7084a751e9454ba8e09180f9aa6d676f0f84d336af9"}),
    ("eigen",
     "E0=-1e-47 J  E1=-8.864e-48 J  label=delocalized-triple-well",
     {"eigen.csv":
      "fff69aca50453f76da3417e7af50e99a7a5d28c21225dfa0e7dfeab0a9fa2eae",
      "eigen_summary.json":
      "f221761c36ced26d573f90eb1d060225a0a4ee4416b18e40898cad43591fa744"}),
    ("feasibility --axis1 t_R --a1_min 1 --a1_max 100 --axis2 R "
     "--a2_min 1e-5 --a2_max 1e-5 --n2 1",
     "grid=16x1 over (t_R,R)  pass=2/16",
     {"region.csv":
      "c4c2c8072d0ecfb76b9670d13f966ffecf3cd01afcfcf94cb1915ae05209183e"}),
    ("feasibility --axis1 R --axis2 v --a2_min 1e-7 --a2_max 1e-5",
     "grid=16x16 over (R,v)  pass=0/256",
     {"region.csv":
      "44cc0b68c1bc02d3b9435e92ac8f512fc160e7199ccdb440d98bf89c2e1af724"}),
    ("decoherence --pressure 1e-12",
     "R points=25  p=1e-12 Pa  T=1.0 K",
     {"decoherence_sweep.csv":
      "ad7625a2f314abf4a4783b2a19957efa1945a625d57f7b725a5d508586a74205"}),
    ("decoherence --pressure 1e-15",
     "R points=25  p=1e-15 Pa  T=1.0 K",
     {"decoherence_sweep.csv":
      "96ad177e0f3d4b499a0fb0846c50b219511340e431257b686d431c4ffce46b22"}),
    ("report",
     "pass=True  theta_max=0.0001211 rad  t_total=57.94 s  "
     "gamma_required=60.57 1/s  KE=3.121e-12 eV",
     {"report.json":
      "61194c3fff7ba7f4c1b892c02cca09d18b8f43cedf8beeedbf0feff1fb5b9957"}),
    ("zeno",
     "freeze_time=1 s  N=100  tau points=9",
     {"zeno_scan.csv":
      "5a8e119bd75832308b61ff6db2cab83546fb9d9480610ba5e95e50207ac8250e"}),
    ("feasibility --axis1 m_probe --a1_min 1e-19 --a1_max 1e-17 "
     "--axis2 R --a2_min 1e-6 --a2_max 1e-4",
     "grid=16x16 over (m_probe,R)  pass=64/256",
     {"region.csv":
      "e03d7264392b8823ca26e678df98403f2b4aaf9d11cdb1ad015f46df1573a5bd"}),
    ("feasibility --axis1 p --a1_min 1e-15 --a1_max 1e-9 --axis2 R "
     "--n2 1 --a2_min 1e-5 --a2_max 1e-5",
     "grid=16x1 over (p,R)  pass=5/16",
     {"region.csv":
      "2f7d7d49fc560908f0a137aeeeb1ae227a77b2d37db864efee63382c7d85e86b"}),
    ("report --t_R 1e100",
     "pass=False  theta_max=3.142 rad  t_total=nan s  "
     "gamma_required=60.57 1/s  KE=3.121e-210 eV",
     {"report.json":
      "a126c9c224f0aab468fefb32f8a2e5f8042a6bccf5c6988959c880169415b7f6"}),
    ("report --t_R 1e40",
     "pass=False  theta_max=3.142 rad  t_total=nan s  "
     "gamma_required=60.57 1/s  KE=3.121e-90 eV",
     {"report.json":
      "85c2f6f53370bf2900a7369b7160213c8a71132de6399b50c33c1c43c8888844"}),
    ("report --t_R 1e60",
     "pass=False  theta_max=3.142 rad  t_total=nan s  "
     "gamma_required=60.57 1/s  KE=3.121e-130 eV",
     {"report.json":
      "fb3d0fb0de45b6ece9bda5e1322112d4745346bcd952472226da9661c6c0e838"}),
    ("report --pressure 1e300",
     "pass=False  theta_max=0.0001211 rad  t_total=57.94 s  "
     "gamma_required=60.57 1/s  KE=3.121e-12 eV",
     {"report.json":
      "361613eeee39fe21e35f09208e2ae04b3e97ca5308b1f38b947f2a20807491d2"}),
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
