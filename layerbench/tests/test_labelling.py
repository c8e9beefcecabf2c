"""Stepwise labelling: the same labels in any step sizes, graphs dropped once labelled."""

from layerbench.common import Labeller, Row, build_rows, derive, fit_and_score


def small_rows():
    # EX68-spec variants label in a few milliseconds each.
    return [Row("EX68", derive(5, "test", i), i < 4) for i in range(6)]


def test_steps_label_every_graph_once_and_drop_it():
    from repro.library.sky130_lite import load_sky130_lite

    library = load_sky130_lite()
    rows = small_rows()
    whole = Labeller(library, build_rows(rows))
    whole.step(len(rows))
    stepped = Labeller(library, build_rows(rows))
    for count in (2, 0, 3, 5):
        stepped.step(count)
    assert len(stepped.labels) == len(stepped.features) == len(stepped.sample_seconds) == len(rows)
    assert stepped.aigs == [None] * len(rows)
    assert [(p.delay_ps, p.area_um2) for p in stepped.labels] == [(p.delay_ps, p.area_um2) for p in whole.labels]


def test_fit_and_score_scores_only_the_test_rows():
    from repro.library.sky130_lite import load_sky130_lite
    from repro.ml.gbdt import GbdtParams

    rows = small_rows()
    labeller = Labeller(load_sky130_lite(), build_rows(rows))
    labeller.step(len(rows))
    fitted = fit_and_score(labeller, rows, GbdtParams(n_estimators=5), seed=5, start=0.0)
    assert fitted.boosting_rounds == 10
    assert fitted.delay_mape is not None and fitted.delay_mape >= 0.0
    assert fitted.area_mape is not None and fitted.area_mape >= 0.0
    assert len(fitted.delays) == len(rows)
