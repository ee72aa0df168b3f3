"""The CARA infusion-pump case study (Section III and the appendix).

``MODE_SWITCHING_REQUIREMENTS`` is the paper's appendix list verbatim —
the thirty requirements about working-mode switching checked in Table I
row 0 — with three typographical fixes recorded in ``TYPO_FIXES``
("termiante"/"terminating" -> "terminate", "model" -> "mode"), since the
misspellings would otherwise create spuriously distinct propositions.

``GOLD_FORMULAS`` is the appendix's hand-listed LTL, transliterated into
this library's proposition naming (the differences are purely cosmetic,
e.g. the paper abbreviates ``available_terminate_auto_control_button`` to
``terminate_auto_control_button``).  The test suite checks the translator
against these formulas, each up to language equivalence.

The thirteen component specifications of Table I (Pump Monitor, the Blood
Pressure Monitor sub-components and the Polling Algorithms) are generated
at the published scales by :mod:`repro.casestudies.generator`, because the
underlying requirement documents are external to the paper.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .generator import ComponentDescriptor, generate, noun_pool

TYPO_FIXES: Tuple[Tuple[str, str], ...] = (
    ("termiante", "terminate"),  # Req-48.1
    ("terminating auto control button", "terminate auto control button"),  # Req-48.6
    ("auto control model", "auto control mode"),  # Req-54
)

#: Appendix requirements, mode switching (Table I, CARA row 0).
MODE_SWITCHING_REQUIREMENTS: Tuple[Tuple[str, str], ...] = (
    ("Req-01", "The CARA will be operational whenever the LSTAT is powered on."),
    ("Req-07", "If an occlusion is detected, and auto control mode is running, auto control mode will be terminated."),
    ("Req-08", "If Air Ok signal remains low, auto control mode is terminated in 3 seconds."),
    ("Req-13.1", "If arterial line and pulse wave are corroborated, and cuff is available, next arterial line is selected."),
    ("Req-13.2", "If pulse wave is corroborated, and cuff is available, and arterial line is not corroborated, next pulse wave is selected."),
    ("Req-13.3", "If arterial line is not corroborated, and pulse wave is not corroborated, and cuff is available, then cuff is selected."),
    ("Req-16", "If a pump is plugged in, and an infusate is ready, and the occlusion line is clear, auto control mode can be started."),
    ("Req-17.1", "When auto control mode is running, eventually the cuff will be inflated."),
    ("Req-17.2", "If start auto control button is pressed, and cuff is not available, an alarm is issued and override selection is provided."),
    ("Req-17.3", "If alarm reset button is pressed, the alarm is disabled."),
    ("Req-17.4", "If override selection is provided, if override yes is pressed, and arterial line is not corroborated, next arterial line is selected."),
    ("Req-17.5", "If override selection is provided, if override yes is pressed, and arterial line is corroborated, and pulse wave is not corroborated, next pulse wave is selected."),
    ("Req-17.6", "If override selection is provided, if override no is pressed, next manual mode is started."),
    ("Req-17.7", "If cuff and arterial line and pulse wave are not available, next manual mode is started."),
    ("Req-20", "If manual mode is running and start auto control button is pressed, next corroboration is triggered."),
    ("Req-28", "If a valid blood pressure is unavailable in 180 seconds, manual mode should be triggered."),
    ("Req-32.1", "If pulse wave or arterial line is available, and cuff is selected, corroboration is triggered."),
    ("Req-32.2", "If pulse wave is selected, and arterial line is available, corroboration is triggered."),
    ("Req-34", "When auto control mode is running, terminate auto control button should be available."),
    ("Req-42", "When auto control mode is running, and the arterial line or pulse wave or cuff is lost, an alarm should sound in 60 seconds."),
    ("Req-44", "If pulse wave and arterial line are unavailable, and cuff is selected, and blood pressure is not valid, next manual mode is started."),
    ("Req-48.1", "Whenever terminate auto control button is selected, a confirmation button is available."),
    ("Req-48.2", "If a confirmation button is available, and confirmation yes is pressed, manual mode is started."),
    ("Req-48.3", "If a confirmation button is available, and confirmation no is pressed, auto control mode is running."),
    ("Req-48.4", "If a confirmation button is available, and confirmation yes is pressed, next confirmation yes is disabled."),
    ("Req-48.5", "If a confirmation button is available, and confirmation no is pressed, next confirmation no is disabled."),
    ("Req-48.6", "If a confirmation button is available, and terminate auto control button is pressed, next terminate auto control button is disabled."),
    ("Req-49", "When a start auto control button is enabled, the start auto control button is enabled until it is pressed."),
    ("Req-54", "If auto control mode is running, and impedance reading is unavailable, next auto control mode is terminated."),
    ("Req-54b", "If auto control mode is running, and occlusion line is not clear, next auto control mode is terminated."),
)

#: Appendix gold LTL in this library's proposition naming; the paper's
#: tool drops the "next" marker, so these correspond to
#: ``TranslationOptions(next_as_x=False)`` and the optimal time
#: abstraction with Theta={3,60,180}, B=5 (divisor 60).
GOLD_FORMULAS: Dict[str, str] = {
    "Req-01": "G (power_on_lstat -> F operational_cara)",
    "Req-07": "G (detect_occlusion && run_auto_control_mode -> F terminate_auto_control_mode)",
    "Req-08": "G (low_air_ok_signal -> terminate_auto_control_mode)",
    "Req-13.1": "G (corroborate_arterial_line && corroborate_pulse_wave && cuff -> select_arterial_line)",
    "Req-13.2": "G (corroborate_pulse_wave && cuff && !corroborate_arterial_line -> select_pulse_wave)",
    "Req-13.3": "G (!corroborate_arterial_line && !corroborate_pulse_wave && cuff -> select_cuff)",
    "Req-16": "G (plug_in_pump && ready_infusate && clear_occlusion_line -> start_auto_control_mode)",
    "Req-17.1": "G (run_auto_control_mode -> F inflate_cuff)",
    "Req-17.2": "G (press_start_auto_control_button && !cuff -> issue_alarm && provide_override_selection)",
    "Req-17.3": "G (press_alarm_reset_button -> !enabled_alarm)",
    "Req-17.4": "G (provide_override_selection -> G (press_override_yes && !corroborate_arterial_line -> select_arterial_line))",
    "Req-17.5": "G (provide_override_selection -> G (press_override_yes && corroborate_arterial_line && !corroborate_pulse_wave -> select_pulse_wave))",
    "Req-17.6": "G (provide_override_selection -> G (press_override_no -> start_manual_mode))",
    "Req-17.7": "G (!cuff && !arterial_line && !pulse_wave -> start_manual_mode)",
    "Req-20": "G (run_manual_mode && press_start_auto_control_button -> trigger_corroboration)",
    "Req-28": "G (X X X !available_blood_pressure -> trigger_manual_mode)",
    "Req-32.1": "G ((pulse_wave || arterial_line) && select_cuff -> trigger_corroboration)",
    "Req-32.2": "G (select_pulse_wave && arterial_line -> trigger_corroboration)",
    "Req-34": "G (run_auto_control_mode -> available_terminate_auto_control_button)",
    "Req-42": "G (run_auto_control_mode && (!arterial_line || !pulse_wave || !cuff) -> X sound_alarm)",
    "Req-44": "G (!pulse_wave && !arterial_line && select_cuff && !valid_blood_pressure -> start_manual_mode)",
    "Req-48.1": "G (select_terminate_auto_control_button -> available_confirmation_button)",
    "Req-48.2": "G (available_confirmation_button && press_confirmation_yes -> start_manual_mode)",
    "Req-48.3": "G (available_confirmation_button && press_confirmation_no -> run_auto_control_mode)",
    "Req-48.4": "G (available_confirmation_button && press_confirmation_yes -> !enabled_confirmation_yes)",
    "Req-48.5": "G (available_confirmation_button && press_confirmation_no -> !enabled_confirmation_no)",
    "Req-48.6": "G (available_confirmation_button && press_terminate_auto_control_button -> !enabled_terminate_auto_control_button)",
    "Req-49": "G (enabled_start_auto_control_button -> (!press_start_auto_control_button -> (enabled_start_auto_control_button W press_start_auto_control_button)))",
    "Req-54": "G (run_auto_control_mode && !available_impedance_reading -> terminate_auto_control_mode)",
    "Req-54b": "G (run_auto_control_mode && !clear_occlusion_line -> terminate_auto_control_mode)",
}


def mode_switching_requirements() -> List[Tuple[str, str]]:
    """The Table I row 0 specification (30 requirements)."""
    return list(MODE_SWITCHING_REQUIREMENTS)


#: Table I component rows: (row id, descriptor).  Formula/variable counts
#: match the published scales exactly; see the module docstring.
COMPONENT_DESCRIPTORS: Tuple[Tuple[str, ComponentDescriptor], ...] = (
    (
        "1",
        ComponentDescriptor(
            name="pump-monitor",
            num_formulas=20,
            input_nouns=noun_pool("pump line", 9, (
                "pump power", "back battery", "air line", "occlusion sensor",
                "infusate level", "pump rate", "fluid source", "air ok signal",
                "pump switch",
            )),
            output_nouns=noun_pool("pump action", 14, (
                "pump alarm", "rate display", "power report", "battery alarm",
                "occlusion report", "rate limit", "monitor log", "pump reset",
                "status page", "flow control", "air purge", "line check",
                "maintenance flag", "pump record",
            )),
            timed=((12, 4),),
            eventual=(7,),
        ),
    ),
    (
        "2.1.1",
        ComponentDescriptor(
            name="bpm-cuff-detector",
            num_formulas=14,
            input_nouns=noun_pool("cuff line", 13, (
                "cuff sensor", "cuff pressure", "cuff wrap", "pump state",
                "patient contact", "cuff valve", "air supply", "cuff fit",
                "wrap sensor", "pressure source", "cuff latch", "hose link",
                "cuff signal",
            )),
            output_nouns=noun_pool("cuff action", 12, (
                "cuff reading", "cuff alarm", "cuff record", "inflate command",
                "deflate command", "cuff status", "cuff display", "retry timer",
                "cuff report", "calibration flag", "cuff log", "pressure page",
            )),
        ),
    ),
    (
        "2.1.2",
        ComponentDescriptor(
            name="bpm-al-detector",
            num_formulas=15,
            input_nouns=noun_pool("al line", 11, (
                "arterial sensor", "line pressure", "catheter state",
                "transducer signal", "line flush", "al connector",
                "waveform source", "line clamp", "zero reference",
                "sensor cable", "al monitor",
            )),
            output_nouns=noun_pool("al action", 14, (
                "al reading", "al alarm", "al record", "line status",
                "waveform display", "al report", "signal filter", "al log",
                "line check", "zero command", "al page", "clamp warning",
                "al flag", "line display",
            )),
            eventual=(9,),
        ),
    ),
    (
        "2.1.3",
        ComponentDescriptor(
            name="bpm-pulse-wave-detector",
            num_formulas=14,
            input_nouns=noun_pool("pw line", 9, (
                "pulse sensor", "wave signal", "probe contact",
                "signal strength", "probe cable", "wave source",
                "sensor clip", "pulse amplitude", "probe state",
            )),
            output_nouns=noun_pool("pw action", 12, (
                "pulse reading", "wave alarm", "pulse record", "wave display",
                "probe warning", "pulse report", "signal log", "wave status",
                "pulse page", "probe check", "wave flag", "pulse filter",
            )),
        ),
    ),
    (
        "2.2.1",
        ComponentDescriptor(
            name="bpm-initial-auto-control",
            num_formulas=16,
            input_nouns=noun_pool("init line", 14, (
                "start request", "pump status", "source list", "cuff source",
                "al source", "pw source", "initial pressure", "operator ack",
                "mode switch", "safety check", "line scan", "power state",
                "sensor suite", "config record",
            )),
            output_nouns=noun_pool("init action", 15, (
                "init reading", "mode display", "source select", "init alarm",
                "control handoff", "init record", "scan report", "mode log",
                "start confirm", "source page", "init flag", "control timer",
                "handoff check", "init status", "mode banner",
            )),
        ),
    ),
    (
        "2.2.2",
        ComponentDescriptor(
            name="bpm-first-corroboration",
            num_formulas=19,
            input_nouns=noun_pool("corr line", 11, (
                "cuff value", "al value", "pw value", "tolerance band",
                "sample window", "corr request", "source pair", "value age",
                "retry count", "operator view", "corr input",
            )),
            output_nouns=noun_pool("corr action", 16, (
                "corr verdict", "corr alarm", "corr record", "pair display",
                "retry command", "corr report", "mismatch flag", "corr log",
                "value page", "band check", "corr status", "source confirm",
                "corr timer", "verdict banner", "pair log", "corr page",
            )),
            eventual=(5, 11),
        ),
    ),
    (
        "2.2.3",
        ComponentDescriptor(
            name="bpm-valid-ctrl-blood-pressure",
            num_formulas=13,
            input_nouns=noun_pool("vbp line", 11, (
                "bp value", "bp age", "source tag", "validity window",
                "control request", "bp trend", "sample rate", "bp source",
                "filter state", "bp bound", "bp input",
            )),
            output_nouns=noun_pool("vbp action", 10, (
                "valid flag", "bp record", "control value", "bp alarm",
                "trend display", "bp report", "bound check", "bp log",
                "value banner", "bp page",
            )),
        ),
    ),
    (
        "2.2.4",
        ComponentDescriptor(
            name="bpm-cuff-source-handler",
            num_formulas=11,
            input_nouns=noun_pool("csh line", 9, (
                "cuff request", "cuff supply", "inflation state",
                "cuff interval", "handler mode", "cuff queue", "cuff age",
                "venous return", "cuff slot",
            )),
            output_nouns=noun_pool("csh action", 10, (
                "cuff command", "interval timer", "cuff release", "cuff note",
                "handler alarm", "cuff slot record", "queue display",
                "handler log", "cuff banner", "handler page",
            )),
        ),
    ),
    (
        "2.2.5",
        ComponentDescriptor(
            name="bpm-arterial-line-blood-pressure",
            num_formulas=16,
            input_nouns=noun_pool("albp line", 9, (
                "al sample", "al window", "al trend", "al request",
                "sample age", "al quality", "beat detect", "al filter",
                "al slot",
            )),
            output_nouns=noun_pool("albp action", 13, (
                "al value out", "al flag", "al trend display", "al note",
                "al sample record", "al quality report", "al beat log",
                "al alarm out", "al banner", "al audit", "al slot page",
                "al check", "al value page",
            )),
            timed=((10, 6),),
        ),
    ),
    (
        "2.2.6",
        ComponentDescriptor(
            name="bpm-arterial-line-corroboration",
            num_formulas=12,
            input_nouns=noun_pool("alc line", 8, (
                "alc sample", "alc reference", "alc band", "alc request",
                "alc age", "alc pair", "alc retry", "alc view",
            )),
            output_nouns=noun_pool("alc action", 13, (
                "alc verdict", "alc alarm", "alc record", "alc display",
                "alc retry command", "alc report", "alc flag", "alc log",
                "alc page", "alc check", "alc status", "alc confirm",
                "alc timer",
            )),
        ),
    ),
    (
        "2.2.7",
        ComponentDescriptor(
            name="bpm-pulse-wave-handler",
            num_formulas=20,
            input_nouns=noun_pool("pwh line", 10, (
                "pwh sample", "pwh window", "pwh trend", "pwh request",
                "pwh age", "pwh quality", "pwh beat", "pwh filter",
                "pwh slot", "pwh view",
            )),
            output_nouns=noun_pool("pwh action", 21, (
                "pwh value out", "pwh flag", "pwh trend display", "pwh note",
                "pwh sample record", "pwh quality report", "pwh beat log",
                "pwh alarm out", "pwh banner", "pwh audit", "pwh slot page",
                "pwh check", "pwh value page", "pwh confirm", "pwh timer",
                "pwh status", "pwh retry", "pwh release", "pwh queue",
                "pwh interval", "pwh command",
            )),
            eventual=(3,),
        ),
    ),
    (
        "3.1",
        ComponentDescriptor(
            name="pa-model-ctrl-algorithm",
            num_formulas=9,
            input_nouns=noun_pool("mca line", 15, (
                "model state", "target pressure", "observed pressure",
                "rate bound", "model error", "control tick", "gain table",
                "model input", "model clock", "patient weight",
                "resistance estimate", "flow estimate", "drift gauge",
                "sensor bias", "loop margin",
            )),
            output_nouns=noun_pool("mca action", 11, (
                "rate command", "model record", "error report", "gain select",
                "control log", "model page", "bound alarm", "model banner",
                "model audit", "loop report", "drift flag",
            )),
            extra=(
                ("pa-mca-ex1", "If the model clock is active, the rate command is triggered in 2 seconds."),
            ),
        ),
    ),
    (
        "3.2",
        ComponentDescriptor(
            name="pa-polling-algorithm",
            num_formulas=56,
            input_nouns=noun_pool("poll line", 12, (
                "poll tick", "poll source", "poll queue", "source health",
                "poll window", "poll retry", "poll priority", "poll clock",
                "poll budget", "poll slot", "poll backlog", "poll input",
            )),
            output_nouns=noun_pool("poll action", 20, (
                "poll command", "poll record", "poll report", "queue display",
                "retry command", "poll alarm", "priority select", "poll log",
                "slot page", "budget check", "poll status", "source confirm",
                "poll timer", "poll banner", "backlog page", "poll audit",
                "health flag", "window select", "poll note", "poll release",
            )),
            timed=((20, 8), (33, 12)),
            eventual=(9, 27, 45),
        ),
    ),
)


def component_requirements() -> Dict[str, List[Tuple[str, str]]]:
    """Requirement sets for every Table I CARA component row."""
    return {
        row: generate(descriptor) for row, descriptor in COMPONENT_DESCRIPTORS
    }
