"""Golden trajectories: the first five iterations of each FEM family.

Each family runs its bundled configuration on a small mesh for iterations
0-4 and must reproduce the recorded objectives j, constraint values g and
weights w to a relative 1e-9. The records were taken before the stress
state of the L-bracket was shared between its two constraints; a change
that only reorders floating-point work stays far inside the tolerance,
while a changed formula, scaling or update order does not.
"""

from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from molto.config import parse_config
from molto.optimizer import run_candidate

RTOL = 1e-9

# family: (bundled config, text substitutions, reference weight)
CASES = {
    # a starting multiplier moves the all-solid girder within five steps
    "compliance": ("girder_desk", {"nx = 60": "nx = 12", "ny = 30": "ny = 6",
                                   "multiplier_init = 0.0": "multiplier_init = 1.0"},
                   (0.6, 0.4)),
    "mechanism": ("gripper", {"nx = 40": "nx = 12", "ny = 20": "ny = 6"},
                  (0.7, 0.3)),
    # a lower stress limit makes both stress multipliers positive
    "stress_volume": ("lbracket", {"nx = 40": "nx = 10",
                                   "stress_limit = 0.05": "stress_limit = 0.01"},
                      (0.5, 0.5)),
}

# family: one (j, g, w) per iteration
GOLDEN = {
    "compliance": [
        ((0.1488283918957285, 0.1488283918957275),
         (0.31852478349901764,),
         (0.6, 0.4)),
        ((0.16756582288689073, 0.1764642611110763),
         (0.27197089305543604,),
         (0.6000000000000001, 0.39999999999999997)),
        ((0.22292464940330586, 0.25310942248773405),
         (0.19378898808133732,),
         (0.6036236317509376, 0.3963763682490624)),
        ((0.3420317832293263, 0.41568466515963076),
         (0.10738648731359696,),
         (0.6102055428933422, 0.3897944571066578)),
        ((0.5331682364438683, 0.6538012445518585),
         (0.03901128869030196,),
         (0.6219209480850441, 0.37807905191495594)),
    ],
    "mechanism": [
        ((1.7370062944245757e-10, 1.1386762755753596e-11),
         (0.6820137900379086,),
         (0.7, 0.3)),
        ((-2.9967852727640394e-11, 4.699264553444634e-13),
         (0.4344040878723228,),
         (0.7, 0.3)),
        ((-3.754387704926701e-11, 3.716425964067943e-13),
         (0.3158903221006389,),
         (0.7066811066393148, 0.29331889336068523)),
        ((-7.967655119358806e-11, 7.194848203781379e-13),
         (0.23220220406513398,),
         (0.7073567873889901, 0.29264321261100995)),
        ((-8.337837396897585e-11, 3.694728139890128e-13),
         (0.22713124147046032,),
         (0.713761307775806, 0.2862386922241939)),
    ],
    "stress_volume": [
        ((0.5899277224212288, 0.03473806280599474),
         (0.006254879363804965, 0.006254879363804965),
         (0.5, 0.5)),
        ((0.5805693265972154, 0.03530866977336024),
         (0.00638825343644662, 0.00638825343644662),
         (0.5, 0.5)),
        ((0.539419590746801, 0.03805793071365066),
         (0.006920582721289465, 0.006920582721289465),
         (0.5011532006493421, 0.4988467993506579)),
        ((0.43919317801998786, 0.055308944294073334),
         (0.017276159417380567, 0.017276159417380567),
         (0.506306188759361, 0.4936938112406391)),
        ((0.35182463132290887, 0.09209336851971733),
         (0.04047356464635294, 0.04047356464635294),
         (0.5289617161345426, 0.47103828386545743)),
    ],
}


def _history(family):
    name, subs, w_star = CASES[family]
    text = resources.files("molto.configs").joinpath(f"{name}.cfg").read_text()
    for old, new in subs.items():
        assert old in text
        text = text.replace(old, new)
    config = parse_config(text)
    # tol_objective 1e-12 keeps the windowed stationarity test from firing
    cfg = replace(config.run_config(), max_iterations=4, window=4,
                  tol_objective=1e-12)
    cand = run_candidate(config.build_problem(), w_star, cfg)
    assert not cand.failed, cand.error
    return cand.history


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_first_iterations_match_record(family):
    history = _history(family)
    assert [row[0] for row in history] == list(range(len(GOLDEN[family])))
    for (s, j, g, w), (j_ref, g_ref, w_ref) in zip(history, GOLDEN[family]):
        for got, ref, what in ((j, j_ref, "j"), (g, g_ref, "g"), (w, w_ref, "w")):
            np.testing.assert_allclose(got, ref, rtol=RTOL, atol=0.0,
                                       err_msg=f"{family} iteration {s}: {what}")
