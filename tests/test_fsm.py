"""FSM gating semantics against the brute-force transition-table oracle."""

import itertools

import numpy as np
import pytest

from microgext.fsm import FsmConfig, FsmState, GestureClass, MalformedProbs, Phase, fsm_step

from .fsm_reference import TableFsm, make_probs

A, B, C = GestureClass.FIST, GestureClass.OPEN, GestureClass.SWIPE
NULL = GestureClass.NULL


def peaked_with(entries: dict[int, float]) -> np.ndarray:
    """make_probs(A, 0.97) with the given entries replaced."""
    p = make_probs(A, 0.97)
    for index, value in entries.items():
        p[index] = value
    return p


SYMBOLS = [
    (cls, p)
    for cls in (A, B, C, NULL)
    for p in (0.30, 0.95, 0.99)
]


def run_production(script, cfg):
    state = FsmState.initial()
    fired = []
    for cls, peak in script:
        state, hit = fsm_step(state, make_probs(cls, peak), cfg)
        fired.append(hit)
    return fired


class TestStepSemantics:
    def test_ten_confident_frames_fire_on_tenth(self):
        cfg = FsmConfig()
        state = FsmState.initial()
        events = []
        for i in range(10):
            state, fired = fsm_step(state, make_probs(A, 0.97), cfg)
            events.append(fired)
        assert events[:9] == [None] * 9
        assert events[9] is A
        assert state.phase is Phase.S1 and state.refractory_remaining == cfg.refractory

    def test_nine_then_drop_never_fires(self):
        cfg = FsmConfig()
        script = [(A, 0.97)] * 9 + [(A, 0.50)]
        assert run_production(script, cfg) == [None] * 10

    def test_below_threshold_never_fires(self):
        cfg = FsmConfig()
        script = [(A, 0.94)] * 30 + [(B, 0.3)] * 30
        assert all(f is None for f in run_production(script, cfg))

    def test_candidate_switch_resets_count(self):
        cfg = FsmConfig(n_consecutive=3)
        state = FsmState.initial()
        state, _ = fsm_step(state, make_probs(A, 0.97), cfg)
        state, _ = fsm_step(state, make_probs(A, 0.97), cfg)
        state, fired = fsm_step(state, make_probs(B, 0.97), cfg)
        assert fired is None
        assert state.phase is Phase.S2 and state.candidate is B and state.consecutive_count == 1
        state, _ = fsm_step(state, make_probs(B, 0.97), cfg)
        state, fired = fsm_step(state, make_probs(B, 0.97), cfg)
        assert fired is B

    def test_null_never_becomes_candidate(self):
        cfg = FsmConfig()
        state = FsmState.initial()
        for _ in range(40):
            state, fired = fsm_step(state, make_probs(NULL, 0.99), cfg)
            assert fired is None
            assert state.phase is Phase.S1

    def test_refractory_suppresses_detections(self):
        cfg = FsmConfig(n_consecutive=2, refractory=5)
        state = FsmState.initial()
        state, _ = fsm_step(state, make_probs(A, 0.99), cfg)
        state, fired = fsm_step(state, make_probs(A, 0.99), cfg)
        assert fired is A
        for _ in range(5):
            state, fired = fsm_step(state, make_probs(B, 0.99), cfg)
            assert fired is None
        # after the countdown the machine arms again
        state, fired = fsm_step(state, make_probs(B, 0.99), cfg)
        assert state.phase is Phase.S2 and state.candidate is B

    def test_pure_function(self):
        cfg = FsmConfig()
        state = FsmState(Phase.S2, A, 4, 0)
        probs = make_probs(A, 0.97)
        a = fsm_step(state, probs, cfg)
        b = fsm_step(state, probs, cfg)
        assert a == b

    def test_malformed_probs(self):
        cfg = FsmConfig()
        with pytest.raises(MalformedProbs):
            fsm_step(FsmState.initial(), np.full(8, 0.2), cfg)
        with pytest.raises(MalformedProbs):
            fsm_step(FsmState.initial(), np.zeros(7), cfg)
        bad = make_probs(A, 0.97)
        bad = np.where(np.arange(8) == 1, -bad[1], bad)
        with pytest.raises(MalformedProbs):
            fsm_step(FsmState.initial(), bad, cfg)

    @pytest.mark.parametrize("probs, message", [
        (peaked_with({2: np.nan}), "finite and non-negative"),
        (peaked_with({2: np.inf}), "finite and non-negative"),
        (peaked_with({2: -np.inf}), "finite and non-negative"),
        (peaked_with({2: np.inf, 3: -np.inf}), "finite and non-negative"),
        (peaked_with({1: -0.03 / 7}), "finite and non-negative"),
        (np.array([1.1, -0.1, 0, 0, 0, 0, 0, 0]), "finite and non-negative"),  # sums to 1
        (peaked_with({0: make_probs(A, 0.97)[0] + 2e-5}), "sum to 1.000020"),
        (np.array([1e308, 1e308, 0, 0, 0, 0, 0, 0]), "sum to inf"),  # finite entries
        (make_probs(A, 0.97)[None], "got shape"),
    ])
    def test_malformed_probs_raise(self, probs, message):
        with pytest.raises(MalformedProbs, match=message), np.errstate(over="ignore"):  # 1e308 + 1e308
            fsm_step(FsmState.initial(), probs, FsmConfig())

    def test_negative_zero_passes(self):
        probs = make_probs(A, 1.0)
        probs[1] = -0.0
        state, fired = fsm_step(FsmState.initial(), probs, FsmConfig())
        assert (state.phase, state.candidate, fired) == (Phase.S2, A, None)

    def test_state_invariants(self):
        with pytest.raises(ValueError):
            FsmState(Phase.S2, NULL, 1, 0)
        with pytest.raises(ValueError):
            FsmState(Phase.S1, None, 2, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FsmConfig(delta=1.5)
        with pytest.raises(ValueError):
            FsmConfig(n_consecutive=0)
        for field, value in (("refractory", "60"), ("refractory", 2.5), ("n_consecutive", True), ("delta", "0.9")):
            with pytest.raises(ValueError, match=f"{field} must be (int|float), got"):
                FsmConfig(**{field: value})


def exhaustive_state_symbol_equivalence(cfg: FsmConfig, max_depth: int = 12) -> int:
    """BFS over all states reachable from initial within max_depth symbols,
    comparing the production step against the table oracle on every
    (state, symbol) pair. Equality on every reachable pair implies equality
    on every script of length <= max_depth, by induction over length.
    Returns the number of comparisons performed."""
    ref = TableFsm(cfg.delta, cfg.n_consecutive, cfg.refractory)

    def to_key(state: FsmState):
        return (
            state.phase.value,
            state.candidate.value if state.candidate else None,
            state.consecutive_count,
            state.refractory_remaining,
        )

    start = FsmState.initial()
    frontier = {to_key(start): start}
    seen = set(frontier)
    comparisons = 0
    for _ in range(max_depth):
        next_frontier = {}
        for state in frontier.values():
            ref_state = (
                state.phase.value,
                state.candidate.value if state.candidate else None,
                state.consecutive_count,
                state.refractory_remaining,
            )
            for cls, peak in SYMBOLS:
                got_state, got_fired = fsm_step(state, make_probs(cls, peak), cfg)
                want_state, want_fired = ref.step(ref_state, cls, peak)
                comparisons += 1
                assert got_fired is want_fired or (got_fired and want_fired and got_fired.value == want_fired.value), (
                    ref_state, cls, peak, got_fired, want_fired
                )
                got_key = to_key(got_state)
                assert got_key == (
                    want_state[0],
                    want_state[1],
                    want_state[2],
                    want_state[3],
                ), (ref_state, cls, peak, got_key, want_state)
                if got_key not in seen:
                    seen.add(got_key)
                    next_frontier[got_key] = got_state
        frontier = next_frontier
        if not frontier:
            break
    return comparisons


class TestOracleEquivalence:
    def test_reachable_state_space_default_config(self):
        comparisons = exhaustive_state_symbol_equivalence(FsmConfig(), max_depth=12)
        assert comparisons > 0

    def test_exhaustive_short_scripts(self):
        # every script up to length 4 over the full 12-symbol alphabet
        cfg = FsmConfig(n_consecutive=3, refractory=2)
        ref = TableFsm(cfg.delta, cfg.n_consecutive, cfg.refractory)
        for length in range(1, 5):
            for script in itertools.product(SYMBOLS, repeat=length):
                got = run_production(script, cfg)
                want = ref.run(script)
                assert [g.value if g else None for g in got] == [
                    w.value if w else None for w in want
                ], script

    def test_random_long_scripts(self):
        cfg = FsmConfig()
        ref = TableFsm(cfg.delta, cfg.n_consecutive, cfg.refractory)
        rng = np.random.default_rng(0)
        for _ in range(500):
            script = [SYMBOLS[i] for i in rng.integers(0, len(SYMBOLS), 12)]
            got = run_production(script, cfg)
            want = ref.run(script)
            assert [g.value if g else None for g in got] == [
                w.value if w else None for w in want
            ]
