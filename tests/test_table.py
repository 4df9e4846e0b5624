"""The package's one CSV output format, shared by every writer."""

import numpy as np

import qosmarket as qm
from qosmarket.qos import save_qos_samples
from qosmarket.valuation import save_pdf_samples


def lines(path):
    return path.read_text().splitlines()


class TestNegativeZero:
    """-0.0 prints as ``0`` from every writer, as in the CLI's own rows."""

    def test_decision_map(self, tmp_path):
        dm = qm.DecisionMap(k_grid_1=(-0.0,), k_grid_2=(0.25,), tech_names=("a", "b"),
                            cells=(("a",),))
        dm.to_csv(tmp_path / "map.csv")
        assert lines(tmp_path / "map.csv") == ["k_split,k_common,choice", "0,0.25,a"]

    def test_dynamics_traces(self, tmp_path):
        qm.DynamicsTrace(np.array([-0.0, 0.5]), True, 1, 0.5).to_csv(tmp_path / "one.csv")
        assert lines(tmp_path / "one.csv") == ["t,lambda2", "0,0", "1,0.5"]
        qm.DynamicsTrace(np.array([[-0.0, 0.25]]), True, 0, 0.0).to_csv(tmp_path / "two.csv")
        assert lines(tmp_path / "two.csv") == ["t,lambda1,lambda2", "0,0,0.25"]

    def test_sample_files(self, tmp_path):
        save_pdf_samples(tmp_path / "pdf.csv", [-0.0, 1.0], [1.0, 1.0])
        assert lines(tmp_path / "pdf.csv") == ["alpha,pdf", "0,1", "1,1"]
        save_qos_samples(tmp_path / "qos.csv", [-0.0, 1.0], [1.0, 0.5])
        assert lines(tmp_path / "qos.csv") == ["lambda,qos", "0,1", "1,0.5"]
