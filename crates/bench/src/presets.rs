//! The paper artifacts as data: Table 1, Figures 1–3 and the follow-up
//! experiments X1–X20, one [`Preset`] each in [`PRESETS`].
//!
//! A preset is a runner argument list plus its prose: `lotus-bench
//! --preset fig2` runs the entry's arguments followed by the user's own,
//! so every runner flag (`--quick`, `--seeds`, `--format json`, extra
//! `--param`s) works on every preset and a later flag overrides the
//! preset's. The epilogue is printed after the figure except under JSON;
//! `--list` prints each entry's `about` text. What an argument list cannot
//! say is an [`Extra`].

use crate::registry::{Params, RunRequest, ScenarioRegistry};
use crate::runner::{parse_args, run_opts, Format, Options};
use bar_gossip::BarGossipConfig;
use netsim::table::Table;

/// One paper artifact.
#[derive(Debug)]
pub struct Preset {
    /// The `--preset` id: `table1`, `fig1`–`fig3` or `x1`–`x20`.
    pub id: &'static str,
    /// What the artifact measures and why (printed by `--list`).
    pub about: &'static [&'static str],
    /// Runner arguments, one flag per entry: `"--flag value"` (split at
    /// the first space) or a bare `"--flag"`.
    pub args: &'static [&'static str],
    /// Conclusions printed after the figure (not under `--format json`).
    pub epilogue: &'static [&'static str],
    /// Behaviour the argument list cannot express.
    pub extra: Extra,
}

/// The typed additions a few presets need.
#[derive(Debug)]
pub enum Extra {
    /// Nothing beyond the argument list.
    None,
    /// Arguments that depend on `--quick`, placed after the preset's own.
    ByFidelity {
        /// At full fidelity.
        full: &'static [&'static str],
        /// Under `--quick`.
        quick: &'static [&'static str],
    },
    /// A second figure, run after the first with the same user flags.
    Then {
        /// Its runner arguments (as [`Preset::args`]).
        args: &'static [&'static str],
        /// Its conclusions (as [`Preset::epilogue`]).
        epilogue: &'static [&'static str],
    },
    /// After the figure, one line with the `attacker_coverage` of a single
    /// ideal-attack run at `x`: the figure's system (the preset's
    /// parameters overlaid by the user's) at the first sweep seed.
    Coverage {
        /// Attacker fraction.
        x: f64,
        /// The paper's coverage figure, as printed.
        paper: &'static str,
    },
    /// Print the Table-1 parameter table instead of a figure.
    Table1,
}

/// Every preset, in EXPERIMENTS.md's order.
pub const PRESETS: &[Preset] = &[
    Preset {
        id: "table1",
        about: &[
            "Table 1: simulation parameters.",
            "",
            "Prints the exact parameter table the paper reports, as carried by the",
            "bar-gossip crate's default configuration (the same table under any",
            "--format).",
        ],
        args: &[],
        epilogue: &[],
        extra: Extra::Table1,
    },
    Preset {
        id: "fig1",
        about: &[
            "Figure 1: three attacks on BAR Gossip.",
            "",
            "Sweeps the fraction of nodes controlled by the attacker and plots the",
            "fraction of updates received by isolated nodes for the crash baseline,",
            "the ideal lotus-eater attack, and the trade lotus-eater attack (70 % of",
            "the system targeted for satiation, Table 1 parameters).",
            "",
            "Paper break points on the 93 % usability line: crash ≈ 0.42,",
            "ideal ≈ 0.04, trade ≈ 0.22. The ideal attacker at 4 % holds only ≈ 39 %",
            "of the updates (partial satiation suffices).",
        ],
        args: &[
            "--scenario bar-gossip",
            "--title FIGURE 1 — Three attacks on BAR Gossip",
            "--curve crash,label=Crash attack,paper=0.42",
            "--curve ideal,label=Ideal lotus-eater attack,paper=0.04",
            "--curve trade,label=Trade lotus-eater attack,paper=0.22",
            "--fraction-grid 0:1",
        ],
        epilogue: &[],
        extra: Extra::Coverage {
            x: 0.04,
            paper: "~39%",
        },
    },
    Preset {
        id: "fig2",
        about: &[
            "Figure 2: a larger optimistic push size reduces effectiveness.",
            "",
            "Identical to Figure 1 but with the push size raised from 2 to 10:",
            "nodes willing to initiate pushes become more altruistic (they give more",
            "at the risk of receiving junk). Paper: the ideal attack now needs",
            "≥ 15 % of nodes (and then supplies ≈ 85 % of updates); the trade attack",
            "needs ≈ 40 %.",
        ],
        args: &[
            "--scenario bar-gossip",
            "--title FIGURE 2 — Larger push size (10) reduces effectiveness",
            "--param push_size=10",
            "--curve crash,label=Crash attack,paper=-",
            "--curve ideal,label=Ideal lotus-eater attack,paper=0.15",
            "--curve trade,label=Trade lotus-eater attack,paper=0.40",
            "--fraction-grid 0:1",
        ],
        epilogue: &[],
        extra: Extra::Coverage {
            x: 0.15,
            paper: "~85%",
        },
    },
    Preset {
        id: "fig3",
        about: &[
            "Figure 3: obedient nodes (unbalanced exchanges) reduce effectiveness.",
            "",
            "The trade lotus-eater attack against four protocol variants: push size",
            "{2, 4} × {balanced, unbalanced} exchanges, attacker fraction swept over",
            "0..0.7 as in the paper. Obedient nodes performing slightly unbalanced",
            "exchanges (give one extra update when receiving at least one) combined",
            "with a modest push-size increase raise the required attacker fraction",
            "by roughly half.",
        ],
        args: &[
            "--scenario bar-gossip",
            "--title FIGURE 3 — Obedient nodes reduce effectiveness (trade attack)",
            "--fraction-grid 0:0.7",
            "--curve trade,push_size=2,unbalanced=0,label=Push size 2 balanced,paper=0.22",
            "--curve trade,push_size=2,unbalanced=1,label=Push size 2 unbalanced,paper=-",
            "--curve trade,push_size=4,unbalanced=0,label=Push size 4 balanced,paper=-",
            "--curve trade,push_size=4,unbalanced=1,label=Push size 4 unbalanced,paper=0.33",
        ],
        epilogue: &["Paper: the combination of both changes raises the required fraction by almost 50%."],
        extra: Extra::None,
    },
    Preset {
        id: "x1",
        about: &[
            "§3: altruism `a` mitigates satiation attacks.",
            "",
            "Token-collecting model under a mass-satiation attack (half the nodes",
            "satiated every round). Sweeping the altruism probability `a` shows the",
            "paper's claim: \"any system with a > 0 will eventually end up with all",
            "nodes satiated\", and even small `a` restores most of the coverage the",
            "attack denies, because satiated nodes keep responding occasionally.",
        ],
        args: &[
            "--scenario token",
            "--title X1 — Altruism restores coverage under mass satiation (token model)",
            "--sweep altruism",
            "--fraction-grid 0:0.5",
            "--x-label altruism probability a",
            "--y-label mean final coverage of untouched nodes",
            "--metric untouched_mean_coverage",
            "--param graph=er",
            "--param er_p=0.08",
            "--param nodes=80",
            "--param tokens=24",
            "--param contacts_per_round=1",
            "--curve none,label=no attack",
            "--curve random-fraction,fraction=0.5,label=attacked (50% satiated every round)",
        ],
        epilogue: &["Paper §3: a > 0 guarantees eventual global satiation; altruism is the mitigation."],
        extra: Extra::ByFidelity {
            full: &["--param rounds=150"],
            quick: &["--param rounds=60"],
        },
    },
    Preset {
        id: "x2",
        about: &[
            "§3: cut attacks exploit graph structure.",
            "",
            "Satiating one column of a grid (a vertex cut) starves the far side of",
            "any token that only exists on the near side; the same number of",
            "satiated nodes placed randomly — or the same attack on an Erdős–Rényi",
            "graph, which has no cheap cuts — does far less damage. This is the",
            "paper's \"resilience to non-random failures\" principle made measurable.",
            "",
            "Token 0 lives only at node 0 (top-left for the grid); the cut at",
            "column 6 separates it from the right half. The random curves spend the",
            "same budget (8 of 96 nodes ≈ 0.083) without structure.",
        ],
        args: &[
            "--scenario token",
            "--title X2 — Cut attacks on structured graphs (token model, 8x12)",
            "--x-values 0.0833",
            "--x-label fraction of nodes satiated (one grid column = 8 of 96)",
            "--y-label mean coverage (untouched nodes)",
            "--metric untouched_mean_coverage",
            "--param tokens=12",
            "--param allocation=rare",
            "--param copies=4",
            "--curve cut-column,graph=grid,rows=8,cols=12,cut_col=6,label=grid column cut satiated",
            "--curve random-fraction,graph=grid,rows=8,cols=12,label=grid same budget random",
            "--curve random-fraction,graph=er,er_p=0.05,nodes=96,label=erdos-renyi same budget random",
        ],
        epilogue: &[
            "Paper §3: a cheap cut (one grid column, 8 nodes) denies the far side",
            "the rare token forever; random graphs and random targeting resist.",
        ],
        extra: Extra::ByFidelity {
            full: &["--param rounds=300"],
            quick: &["--param rounds=120"],
        },
    },
    Preset {
        id: "x3",
        about: &[
            "§3: rare-token denial.",
            "",
            "\"In the extreme case where some token is initially at a single node, an",
            "attacker can deny the entire system access to that token for the cost",
            "of satiating one node.\" We give the attacker a fixed budget of two",
            "satiations per round and sweep the number of initial holders of the",
            "rare token: one or two holders are contained for that trivial cost,",
            "but once holders outnumber the per-round budget the token outruns",
            "the attacker — spreading the initial allocation is the defense.",
        ],
        args: &[
            "--scenario token",
            "--title X3 — Rare-token denial: attacker satiates every holder (token model)",
            "--sweep rare_holders",
            "--x-values 1,2,3,4,6,8",
            "--x-label initial holders of the rare token",
            "--y-label fraction of nodes that ever obtain it",
            "--metric token0_reach",
            "--param nodes=60",
            "--param tokens=10",
            "--param allocation=rare-spread",
            "--param copies=4",
            "--param rounds=120",
            "--curve none,label=no attack",
            "--curve rare-holders,budget=2,label=rare-holder satiation attack (budget 2/round)",
        ],
        epilogue: &[
            "Paper §3: one rare holder is silenced for the cost of satiating one node;",
            "once holders outnumber the attacker's budget the token escapes — spreading",
            "the initial allocation is the defense.",
        ],
        extra: Extra::None,
    },
    Preset {
        id: "x4",
        about: &[
            "§4: a fixed money supply makes mass satiation impossible.",
            "",
            "\"While it is easy for an attacker to accumulate enough money to satiate",
            "a few nodes, there may not even be enough money in the system to",
            "satiate a significant fraction of the nodes.\" Satiating a fraction φ",
            "of n threshold-k agents locks ≈ φ·n·k scrip; the system has m·n. We",
            "sweep φ for several m and report the satiation the attacker actually",
            "achieves (his endowment is *all* the money, the best case for him).",
        ],
        args: &[
            "--scenario scrip",
            "--title X4 — The money supply caps the satiable fraction (scrip system)",
            "--fraction-grid 0.05:0.9",
            "--x-label fraction of agents targeted",
            "--y-label achieved target satiation",
            "--metric target_satiation",
            "--param agents=100",
            "--param threshold=5",
            "--param endowment=1.0",
            "--curve lotus-eater,money_per_agent=1,label=money per agent m = 1 (threshold k = 5)",
            "--curve lotus-eater,money_per_agent=2,label=money per agent m = 2 (threshold k = 5)",
            "--curve lotus-eater,money_per_agent=4,label=money per agent m = 4 (threshold k = 5)",
        ],
        epilogue: &[
            "Satiating a fraction f of agents locks ~f*n*k scrip; only m*n exists, so",
            "satiation collapses beyond f ~ m/k (0.2, 0.4, 0.8 for these series).",
        ],
        extra: Extra::ByFidelity {
            full: &["--param rounds=20000", "--param warmup=2000"],
            quick: &["--param rounds=4000", "--param warmup=400"],
        },
    },
    Preset {
        id: "x5",
        about: &[
            "[KFH EC'07]: altruists can crash a scrip economy.",
            "",
            "With adaptive thresholds, free altruist service erodes the value of",
            "money: rational agents lower their thresholds until the paid market",
            "dies. A few altruists leave the economy healthy; a middling number",
            "crashes paid service while providing too little free capacity —",
            "\"making all agents worse off because they now receive only the level",
            "of service altruists are providing.\"",
        ],
        args: &[
            "--scenario scrip",
            "--title X5 — Altruists crash an adaptive scrip economy",
            "--sweep altruists",
            "--x-values 0,5,10,20,30,40,60,80",
            "--x-label number of altruists (of 100 agents)",
            "--y-label service rate / mean threshold",
            "--param agents=100",
            "--param money_per_agent=3",
            "--param threshold=4",
            "--param availability=0.25",
            "--curve none,adaptive_thresholds=0,metric=service_rate,label=service rate (fixed thresholds)",
            "--curve none,adaptive_thresholds=1,metric=service_rate,label=service rate (adaptive thresholds)",
            "--curve none,adaptive_thresholds=1,metric=mean_threshold,label=mean threshold (adaptive)",
        ],
        epilogue: &[
            "The crash: middling altruist counts erode thresholds (paid market dies)",
            "while altruist capacity cannot yet cover demand.",
        ],
        extra: Extra::ByFidelity {
            full: &["--param rounds=60000", "--param warmup=15000"],
            quick: &["--param rounds=12000", "--param warmup=3000"],
        },
    },
    Preset {
        id: "x6",
        about: &[
            "§1: the lotus-eater attack barely dents BitTorrent.",
            "",
            "The attacker satiates a third of the leechers with generous uploads;",
            "they finish early and leave. \"Since most leechers are downloading more",
            "than they upload, this is often actually a net benefit to the torrent\"",
            "— non-targeted completion times stay flat (or improve) as attacker",
            "resources grow, in sharp contrast to BAR Gossip's collapse (fig1).",
        ],
        args: &[
            "--scenario bittorrent",
            "--title X6 — Satiation attack on a BitTorrent swarm (40 leechers, 33% targeted)",
            "--sweep attacker_peers",
            "--x-values 0,1,2,4,6,8,12",
            "--x-label attacker peers (8 upload slots each)",
            "--y-label mean completion round",
            "--param leechers=40",
            "--param origin_seeds=1",
            "--param pieces=48",
            "--param max_rounds=1500",
            "--param fraction=0.33",
            "--param attacker_slots=8",
            "--curve satiate,metric=mean_completion_nontargeted,label=non-targeted leechers",
            "--curve satiate,metric=mean_completion_targeted,label=targeted leechers",
        ],
        epilogue: &[
            "Targets finish early (satiated); non-targets are barely hurt — often helped —",
            "because the attacker's own upload capacity joins the swarm (paper §1).",
        ],
        extra: Extra::None,
    },
    Preset {
        id: "x7",
        about: &[
            "§4: rarest-first and seeding defuse manufactured last-pieces problems.",
            "",
            "The attacker satiates the holders of the rarest pieces with a",
            "deliberately *minimal* bandwidth budget (one peer, two slots), hoping",
            "they leave before passing those pieces on. The experiment measures",
            "both policies, clean and attacked:",
            "",
            "* rarest-first beats uniform-random selection in the clean swarm (the",
            "  Legout et al. result the paper cites);",
            "* under both policies the attack fails to inflate the completion",
            "  tail meaningfully: the origin seed re-replicates whatever rarity the",
            "  departures create, and satiated targets leaving early frees seed",
            "  capacity for the stragglers. \"BitTorrent's rarest first policy does",
            "  a good job of resolving this problem\" — and seeding (built-in",
            "  altruism) backs it up.",
        ],
        args: &[
            "--scenario bittorrent",
            "--title X7 — Rare-piece satiation vs piece-selection policy (40 leechers, 96 pieces)",
            "--x-values 0,0.125,0.25,0.375,0.5",
            "--x-label fraction of leechers targeted (rare-piece holders)",
            "--y-label completion round of non-targeted leechers",
            "--param leechers=40",
            "--param origin_seeds=1",
            "--param pieces=96",
            "--param unchoke_slots=3",
            "--param max_rounds=3000",
            "--param attacker_peers=1",
            "--param attacker_slots=2",
            "--param target_policy=rare",
            "--curve satiate,piece_policy=rarest,metric=mean_completion_nontargeted,\
             label=rarest-first: mean completion",
            "--curve satiate,piece_policy=rarest,metric=p95_completion_nontargeted,\
             label=rarest-first: p95 completion",
            "--curve satiate,piece_policy=random,metric=mean_completion_nontargeted,\
             label=uniform-random: mean completion",
            "--curve satiate,piece_policy=random,metric=p95_completion_nontargeted,\
             label=uniform-random: p95 completion",
        ],
        epilogue: &[
            "Clean swarm: rarest-first beats random (piece diversity keeps leechers",
            "trading). Attacked: neither policy develops a last-pieces problem — the",
            "origin seed re-replicates rarity and early departures free its capacity.",
            "The paper's conclusion holds: this attack variant does not pay (§1, §4).",
        ],
        extra: Extra::None,
    },
    Preset {
        id: "x8",
        about: &[
            "§4: obedient nodes report excessive service; evict on quorum.",
            "",
            "\"Only two people know if an attacker provides excessive service: the",
            "attacker and the node that benefits from it... a rational node might",
            "not report it. But an obedient node would.\" We run the trade",
            "lotus-eater attack well above its break point and sweep the fraction",
            "of honest nodes that are obedient reporters: with enough of them the",
            "attackers are evicted quickly and isolated delivery recovers.",
        ],
        args: &[
            "--scenario bar-gossip",
            "--title X8 — Report-and-evict defense vs obedient fraction (quorum 3)",
            "--sweep report_obedient",
            "--fraction-grid 0:1",
            "--x-label fraction of honest nodes that are obedient reporters",
            "--y-label isolated delivery / evicted fraction",
            "--param fraction=0.30",
            "--param report_quorum=3",
            "--param report_excess_slack=1",
            "--curve trade,label=isolated delivery (trade attack at 30%)",
            "--curve trade,metric=evicted_fraction,label=fraction of attackers evicted",
        ],
        epilogue: &[
            "A modest pool of obedient nodes suffices to evict every trade attacker",
            "(signed exchange records are the evidence) and restore usability.",
        ],
        extra: Extra::None,
    },
    Preset {
        id: "x9",
        about: &[
            "§4/§5: rate-limiting service prevents rapid satiation.",
            "",
            "The paper's §5 open problem: \"design a system that limits the rate at",
            "which nodes can provide service\", so no attacker can satiate targets",
            "\"sufficiently rapidly\". We enforce the *naive* version — a flat cap on",
            "useful updates per interaction — and sweep it. The result is a",
            "negative one that explains why the paper calls this open: the flat cap",
            "throttles honest balanced exchanges (which legitimately move many",
            "updates at once) far more than it throttles the attacker (who gets",
            "many small scheduled interactions), so tight caps make isolated nodes",
            "*worse* off under attack, and the out-of-band ideal attack is",
            "untouched by any protocol-level cap. Rate limiting must be targeted at",
            "excess service (see x8) rather than all service.",
        ],
        args: &[
            "--scenario bar-gossip",
            "--title X9 — Per-interaction rate limit vs attacks (cap in updates/exchange)",
            "--sweep rate_limit",
            "--x-values 1,2,3,5,8,16,32",
            "--x-label rate limit (updates per interaction; 32 = unbounded)",
            "--y-label isolated delivery",
            "--curve none,label=no attack (defense cost)",
            "--curve trade,fraction=0.30,label=trade attack at 30%",
            "--curve ideal,fraction=0.10,label=ideal attack at 10% (bypasses protocol)",
        ],
        epilogue: &[
            "Negative result, as the paper anticipates (§5 open problem): a flat",
            "per-interaction cap hurts honest exchanges more than the attacker, and",
            "cannot touch the out-of-band ideal attack. Effective rate limiting must",
            "discriminate excess service — which is what report-and-evict (X8) does.",
        ],
        extra: Extra::None,
    },
    Preset {
        id: "x10",
        about: &[
            "§4: coding changes the satiation function and blunts rare-token attacks.",
            "",
            "With Avalanche-style network coding a node needs any `k` of the `n`",
            "coded tokens instead of all of them. The rare-token denial attack —",
            "devastating under collect-all — becomes irrelevant as soon as the",
            "redundancy `n - k` exceeds the number of tokens an attacker can deny.",
        ],
        args: &[
            "--scenario token",
            "--title X10 — Coding defense: need (16 - redundancy) of 16 coded tokens",
            "--sweep redundancy",
            "--x-values 0,1,2,4,6,8",
            "--x-label redundancy (extra coded tokens)",
            "--y-label fraction of untouched nodes satisfied",
            "--metric untouched_satisfied",
            "--param nodes=60",
            "--param tokens=16",
            "--param allocation=rare",
            "--param copies=4",
            "--param rounds=100",
            "--curve none,label=no attack",
            "--curve rare-holders,label=rare-token attack",
        ],
        epilogue: &[
            "Redundancy 0 = collect-all: denying the one rare token denies everyone.",
            "Any redundancy >= 1 makes the rare token skippable (paper §4, Avalanche).",
        ],
        extra: Extra::None,
    },
    Preset {
        id: "x11",
        about: &[
            "§2: rotating satiation makes the service intermittently unusable for",
            "everyone.",
            "",
            "\"By changing who is satiated over time, the attacker could even make",
            "the service intermittently unusable for all nodes.\" A static trade",
            "attack starves the same 30% forever; rotating the satiated set with a",
            "period at or above the update lifetime spreads the outage across the",
            "whole population. Rotating *faster* than the lifetime backfires — the",
            "attacker heals rotated-in nodes before their missed updates expire —",
            "so the experiment also maps the attack's operating envelope.",
        ],
        args: &[
            "--scenario bar-gossip",
            "--title X11 — Rotating satiation (trade attack at 30%, Table-1 system)",
            "--sweep rotation_period",
            "--x-values 0,40,20,10,5,2",
            "--x-label rotation period in rounds (0 = static satiated set)",
            "--y-label fraction / delivery",
            "--param rounds=60",
            "--param fraction=0.30",
            "--curve trade,metric=nodes_ever_unusable,label=honest nodes ever unusable",
            "--curve trade,metric=unusable_node_rounds,label=unusable node-round samples",
            "--curve trade,metric=min_node_delivery,label=min whole-run node delivery",
        ],
        epilogue: &[
            "Static: only the isolated 30% ever suffer. Slow rotation (period >= the",
            "update lifetime): everyone takes a turn being isolated — intermittent",
            "unusability for all, as §2 predicts. Fast rotation backfires: the",
            "attacker refills rotated-in nodes before their missed updates expire,",
            "involuntarily becoming an altruist — the satiated set must stay isolated",
            "longer than a lifetime for the outage to register.",
        ],
        extra: Extra::None,
    },
    Preset {
        id: "x12",
        about: &[
            "§4: \"scrip could be the basis for an incentive-compatible gossip",
            "system that is robust against lotus-eater attacks.\"",
            "",
            "We build exactly that (`bar_gossip::scrip_gossip`): the balanced",
            "exchange's double coincidence of wants is replaced by purchases at one",
            "scrip per update, with threshold sellers. A gift of updates no longer",
            "silences a node — an update-satiated node keeps *selling* because it",
            "still wants income — so the paper's trade attack, swept exactly as in",
            "Figure 1, barely moves the scrip-gossip curve while it collapses the",
            "vanilla one.",
        ],
        args: &[
            "--title X12 — Scrip-mediated gossip resists the trade lotus-eater attack",
            "--fraction-grid 0:0.6",
            "--y-label isolated delivery",
            "--metric isolated_delivery",
            "--curve trade,scenario=bar-gossip,label=vanilla BAR Gossip (trade attack)",
            "--curve trade,scenario=scrip-gossip,label=scrip gossip (same attack)",
        ],
        epilogue: &[
            "Update gifts cannot silence a seller that still wants income; to silence",
            "it the attacker must hold its *balance* at threshold — and the fixed",
            "money supply caps how many nodes he can hold there (X4). The paper's §4",
            "suggestion checks out.",
        ],
        extra: Extra::None,
    },
    Preset {
        id: "x13",
        about: &[
            "§1/§3: sensor networks are structurally vulnerable.",
            "",
            "\"A node in a sensor network might shut down to save power if it has",
            "received all the updates it needs\" (§1) — power-saving is satiation.",
            "And \"in sensor networks, there is often an inherent structure an",
            "attacker may be able to make use of\" (§3): a radio topology is a",
            "random *geometric* graph, which (unlike an Erdős–Rényi graph of the",
            "same density) almost always admits cheap spatial cuts. The attacker",
            "plans the cut with the BFS-layer heuristic and satiates it; one side",
            "of the field never hears the sink's rare readings.",
            "",
            "On the density-matched Erdős–Rényi control (p ≈ 0.09, the expected",
            "edge density of a radius-0.17 geometric field on 120 nodes) the",
            "planner frequently finds *no* cheap cut at all — exactly the §3 point",
            "that random graphs resist structural attacks (the registry degrades a",
            "failed plan to the null attack, so the control curve stays near full",
            "coverage). The random control spends a fixed 10 % satiation budget,",
            "comparable to the typical planned-cut size on this field.",
        ],
        args: &[
            "--scenario token",
            "--title X13 — Power-saving sensors under a planned cut attack (120 nodes)",
            "--x-values 0.1",
            "--x-label fraction satiated by the random-budget control",
            "--y-label mean coverage (untouched nodes)",
            "--metric untouched_mean_coverage",
            "--param nodes=120",
            "--param tokens=12",
            "--param allocation=rare",
            "--param copies=5",
            "--param rounds=250",
            "--curve cut-plan,graph=geometric,radius=0.17,label=geometric field: planned spatial cut",
            "--curve random-fraction,graph=geometric,radius=0.17,\
             label=geometric field: same budget random",
            "--curve cut-plan,graph=er,er_p=0.045,label=erdos-renyi control: planned cut",
        ],
        epilogue: &[
            "Geometric radio fields expose cheap spatial cuts; the same satiation",
            "budget spent randomly does far less damage (§1, §3).",
        ],
        extra: Extra::None,
    },
    Preset {
        id: "x14",
        about: &[
            "§1/§4: reputation vs scrip as satiation currencies.",
            "",
            "Both indirect-reciprocity designs can be lotus-eaten: keep the target's",
            "balance/score at its threshold and it stops serving (§1). The defense",
            "value differs though. Scrip is *conserved* — satiating a fraction φ",
            "locks φ·n·k of an m·n supply, a hard wall (X4). Reputation is *minted*",
            "by feedback, so the attacker pays only a *linear maintenance bill*",
            "(≈ k·(1−δ) fake points per target per round against decay δ) and never",
            "hits a wall. The experiment sweeps the targeted fraction and plots the",
            "achieved satiation under both systems, plus the reputation attacker's",
            "bill.",
        ],
        args: &[
            "--title X14 — Satiation currencies: conserved scrip vs minted reputation",
            "--x-values 0.1,0.2,0.3,0.45,0.6,0.75,0.9",
            "--x-label fraction of agents targeted",
            "--y-label achieved satiation / attacker bill per round",
            "--param agents=100",
            "--param threshold=5",
            "--curve lotus-eater,scenario=scrip,money_per_agent=2,endowment=1.0,\
             metric=target_satiation,label=scrip: achieved satiation (m=2 k=5)",
            "--curve inflate,scenario=reputation,metric=target_satiation,\
             label=reputation: achieved satiation (k=5)",
            "--curve inflate,scenario=reputation,metric=attacker_cost_per_round,\
             label=reputation: attacker bill / round",
        ],
        epilogue: &[
            "Scrip hits the supply wall past phi ~ m/k = 0.4; reputation never does —",
            "the attacker's only constraint is a bill growing linearly in targets",
            "(k(1-delta) fake points per target per round). Conservation is what makes",
            "'making satiation hard' (§4) a *hard* guarantee.",
        ],
        extra: Extra::ByFidelity {
            full: &["--param rounds=20000", "--param warmup=2000"],
            quick: &["--param rounds=4000", "--param warmup=400"],
        },
    },
    Preset {
        id: "x15",
        about: &[
            "The oscillating lotus-eater: defect, cooperate, re-defect.",
            "",
            "§2 observes that by changing *when* it attacks, the attacker can keep",
            "the system permanently off balance. This preset runs the trade",
            "lotus-eater under a periodic schedule (on for 10 rounds of every 20 —",
            "one update lifetime of defection, one of cooperation) and compares it",
            "with the always-on attack across attacker fractions. During the",
            "cooperate phase the attacker nodes run the honest protocol, building",
            "both stock and cover; each re-defection re-opens the delivery wound",
            "before the window fully heals, so the oscillating attacker touches far",
            "more honest node-rounds per unit of attack time than the static one.",
            "",
            "Sweepable and benchable through the ordinary grammar, e.g.:",
            "  lotus-bench --scenario bar-gossip --attack trade \\",
            "      --schedule periodic:20:10 --sweep fraction --quick",
            "  lotus-bench --bench --scenario bar-gossip \\",
            "      --curve \"trade,schedule=periodic:20:10\"",
        ],
        args: &[
            "--scenario bar-gossip",
            "--title X15 — Oscillating lotus-eater (periodic:20:10 vs always-on)",
            "--param rounds=60",
            "--y-label isolated delivery at expiry",
            "--curve trade,label=always-on trade attack",
            "--curve trade,schedule=periodic:20:10,label=oscillating trade attack",
            "--curve trade,schedule=periodic:20:10,metric=nodes_ever_unusable,\
             label=oscillating: nodes ever unusable",
            "--curve none,label=no attack",
        ],
        epilogue: &[
            "The oscillating attacker trades sustained pressure for periodic",
            "shocks: isolated delivery recovers partway during each cooperate",
            "phase, but every re-defection dips it again — the nodes-ever-",
            "unusable curve shows the intermittent outages spreading across",
            "the population even where mean delivery looks tolerable.",
        ],
        extra: Extra::None,
    },
    Preset {
        id: "x16",
        about: &[
            "Churn-gossip: the lotus-eater attack on an open population.",
            "",
            "The paper's figures assume a closed population; real gossip systems",
            "churn. This preset sweeps the per-round departure probability",
            "(`churn_leave`, returns at 0.25/round) on the Table-1 BAR Gossip",
            "system, clean and under a 22 % trade lotus-eater — the paper's",
            "break-even attacker size. Churn and the attack compound: departures",
            "thin the honest exchange pool exactly where satiation already silenced",
            "the satiated set, so the usability bar falls at *smaller* attacker",
            "fractions than the closed-population crossover suggests.",
            "",
            "Sweepable and benchable through the ordinary grammar, e.g.:",
            "  lotus-bench --scenario bar-gossip --attack none,trade \\",
            "      --sweep churn_leave --x-values 0,0.01,0.02,0.05,0.1 --quick",
            "  lotus-bench --bench --scenario bar-gossip --curve \"none,churn_leave=0.05\"",
        ],
        args: &[
            "--scenario bar-gossip",
            "--title X16 — Churn-gossip (delivery vs per-round departure rate)",
            "--sweep churn_leave",
            "--x-values 0,0.005,0.01,0.02,0.05,0.1",
            "--x-label per-round departure probability (rejoin at 0.25/round)",
            "--y-label delivery at expiry",
            "--param rounds=60",
            "--param fraction=0.22",
            "--curve none,label=no attack",
            "--curve trade,label=trade attack at 22%",
            "--curve trade,metric=isolated_delivery,label=trade at 22%: isolated nodes",
        ],
        epilogue: &[
            "Churn alone degrades delivery gracefully — absent nodes miss",
            "updates but the seeding spread covers the rest. Under the trade",
            "attack the same churn bites much harder: the isolated nodes'",
            "curve drops through the 93% usability bar at departure rates the",
            "clean system shrugs off, because the attacker already removed",
            "the satiated set from the honest exchange pool.",
        ],
        extra: Extra::None,
    },
    Preset {
        id: "x17",
        about: &[
            "The adaptive lotus-eater: a bandit that learns when to defect.",
            "",
            "Scheduled attacks are open-loop: the attacker fixes its phase pattern",
            "before the run. This preset closes the loop — the attacker treats",
            "{dormant, cooperate, defect, rotate} as bandit arms (epsilon-greedy",
            "and UCB1 over observed damage, `lotus_core::adaptive`) and re-plans",
            "every 10 rounds from the delivery degradation it actually causes. It",
            "is compared against the always-on attack and the best *static*",
            "oscillating schedule from X15, with `--arm-trace` appending the",
            "per-phase arm sequence each bandit converged to.",
            "",
            "Sweepable and benchable through the ordinary grammar, e.g.:",
            "  lotus-bench --scenario bar-gossip --attack trade \\",
            "      --adaptive epsilon-greedy,10,0.1 --arm-trace --quick",
            "  lotus-bench --scenario scrip --attack lotus-eater \\",
            "      --adaptive ucb,50,1.4 --sweep adaptive_epsilon --x-values 0,0.5,1",
            "  lotus-bench --bench --scenario bar-gossip \\",
            "      --curve \"trade,adaptive=ucb:10:0.5\"",
        ],
        args: &[
            "--scenario bar-gossip",
            "--title X17 — Adaptive bandit attackers vs static schedules",
            "--param rounds=120",
            "--y-label isolated delivery at expiry",
            "--arm-trace",
            "--curve trade,label=always-on trade attack",
            "--curve trade,schedule=periodic:20:10,label=static oscillating (20:10)",
            "--curve trade,adaptive=epsilon-greedy:10:0.1,label=adaptive epsilon-greedy",
            "--curve trade,adaptive=ucb:10:0.5,label=adaptive UCB1",
            "--curve none,label=no attack",
        ],
        epilogue: &[
            "The bandit spends its first four phases sweeping the arms, then",
            "concentrates on whichever defection pattern the observed damage",
            "rewards — on BAR Gossip that is defect/rotate-heavy play that",
            "tracks the always-on attack while spending cooperate phases",
            "rebuilding stock. The arm traces above show the learned schedule",
            "per curve; sweep adaptive_epsilon or adaptive_phase to study how",
            "exploration and commitment length trade off against damage.",
        ],
        extra: Extra::None,
    },
    Preset {
        id: "x18",
        about: &[
            "Flash-crowd gossip: synchronized arrivals meet the lotus-eater.",
            "",
            "Real deployments see *flash crowds*: a synchronized burst of fresh",
            "nodes joining with empty state when new content drops. This preset",
            "lands the same burst on two substrates under the same attack sweep",
            "and shows the interaction has *opposite signs*:",
            "",
            "* BAR Gossip — the crowd amplifies the defection. A crowd of 75",
            "  empty-window nodes (30 % of the system) at round 20 costs ~2 points",
            "  of isolated delivery on its own and the system stays usable. Under",
            "  a trade lotus-eater the same crowd's loss is *superadditive*: the",
            "  newcomers depend on exactly the balanced-exchange partners the",
            "  attacker silenced, so the usability crossover moves to *smaller*",
            "  attacker fractions than the closed-population sweep suggests. The",
            "  `presence-above` schedule variant is the patient striker that",
            "  cooperates until the crowd lands, then defects into the spike.",
            "* BitTorrent — the defection masks the crowd. Late-joining",
            "  leechers slow the swarm's mean completion; but the satiation",
            "  attacker's upload capacity absorbs the newcomers' demand, so",
            "  completion times *improve* with attacker fraction even mid-crowd —",
            "  the §1 \"barely dents\" result, now with arrivals.",
            "",
            "Sweepable and benchable through the ordinary grammar, e.g.:",
            "  lotus-bench --scenario bar-gossip --attack trade --arrival burst:20:75 \\",
            "      --schedule presence-above:0.99 --quick",
            "  lotus-bench --scenario bittorrent --attack satiate \\",
            "      --sweep arrival_size --x-values 0,10,20,40 --param arrival=burst:10:1",
        ],
        args: &[
            "--scenario bar-gossip",
            "--title X18 — Flash crowds vs the lotus-eater (burst arrivals on two substrates)",
            "--x-values 0,0.05,0.11,0.17,0.22,0.28,0.33",
            "--x-label attacker fraction",
            "--y-label isolated delivery (gossip) / rounds to complete (swarm)",
            "--curve trade,rounds=60,label=gossip: trade (closed)",
            "--curve trade,rounds=60,arrival=burst:20:75,label=gossip: trade + crowd@20",
            "--curve trade,rounds=60,arrival=burst:20:75,schedule=presence-above:0.99,\
             label=gossip: strike when the crowd lands",
            "--curve none,rounds=60,arrival=burst:20:75,label=gossip: crowd only",
            "--curve satiate,scenario=bittorrent,arrival=burst:10:15,label=swarm: satiate + crowd@10",
            "--curve none,scenario=bittorrent,arrival=burst:10:15,label=swarm: crowd only",
        ],
        epilogue: &[
            "The gossip crowd costs ~2 points of isolated delivery on its",
            "own; under the trade attack the loss is superadditive and the",
            "93% usability bar falls at smaller attacker fractions than the",
            "closed sweep predicts — newcomers depend on exactly the",
            "exchange partners the attacker silenced. The presence-triggered",
            "variant cooperates until the crowd lands, then defects into the",
            "spike. On the swarm the sign flips: the satiation attacker's",
            "upload capacity absorbs the crowd's demand, so nontargeted",
            "completion *improves* with attacker fraction — the attack",
            "masks the crowd (and the crowd masks the attack).",
        ],
        extra: Extra::None,
    },
    Preset {
        id: "x19",
        about: &[
            "Graceful degradation under faults, and plausible deniability.",
            "",
            "Sweeps the message-loss rate on the two gossip substrates with the",
            "silence cut-off defense armed (`cutoff=3`). Two stories in one figure:",
            "",
            "* Graceful degradation — delivery on the clean system falls",
            "  smoothly with the loss rate on both vanilla BAR Gossip and the",
            "  scrip-mediated variant; faults alone never cliff the way the",
            "  lotus-eater attack does.",
            "* Plausible deniability — a fault-masquerading defector stays",
            "  silent at exactly the ambient fault rate. On a clean network",
            "  (`fault_loss=0`) it never defects and the defense has nothing to",
            "  cut; as loss rises, the defense's false-cut rate on *honest* nodes",
            "  climbs toward its cut rate on the masqueraders — the attacker's",
            "  defection becomes statistically indistinguishable from weather.",
            "",
            "Sweepable and benchable through the ordinary grammar, e.g.:",
            "  lotus-bench --scenario bar-gossip --attack masquerade --param cutoff=3 \\",
            "      --sweep fault_loss --x-values 0,0.1,0.2,0.3 --quick",
            "  lotus-bench --bench --scenario bar-gossip \\",
            "      --curve \"masquerade,faults=loss:0.1,cutoff=3\"",
        ],
        args: &[
            "--scenario bar-gossip",
            "--title X19 — Faults and plausible deniability (cutoff quorum 3)",
            "--sweep fault_loss",
            "--x-values 0,0.05,0.1,0.2,0.3",
            "--x-label per-delivery message-loss probability",
            "--y-label delivery / cut rate",
            "--param rounds=60",
            "--param fraction=0.2",
            "--param cutoff=3",
            "--curve none,label=bar-gossip: clean delivery",
            "--curve masquerade,label=bar-gossip: delivery vs masquerade at 20%",
            "--curve none,metric=false_cut_rate,label=bar-gossip: honest false-cut rate",
            "--curve masquerade,metric=attacker_cut_rate,label=bar-gossip: masquerader cut rate",
            "--curve none,scenario=scrip-gossip,label=scrip-gossip: clean delivery",
            "--curve masquerade,scenario=scrip-gossip,metric=attacker_cut_rate,\
             label=scrip-gossip: masquerader cut rate",
        ],
        epilogue: &[
            "Faults degrade both substrates gracefully: delivery slides with",
            "the loss rate, no cliff. The defense-side story is the sharp one:",
            "at zero loss the masquerader is perfectly deniable (it never",
            "defects) and nobody is cut; at moderate loss the cutoff catches",
            "masqueraders faster than honest unlucky nodes; as loss climbs the",
            "honest false-cut rate converges toward the masquerader cut rate",
            "and the defense's precision collapses — plausible deniability,",
            "quantified.",
        ],
        extra: Extra::None,
    },
    Preset {
        id: "x20",
        about: &[
            "Digest gossip and the advertise-then-withhold attack.",
            "",
            "Two figures over the `bar-gossip-digest` scenario (the two-leg",
            "advertise/diff/transfer round):",
            "",
            "* Delivery — the classic attacks (crash-free trade, fault",
            "  masquerade) next to the digest-native *poison* attacker, who",
            "  advertises truthfully and then withholds requested updates. At",
            "  `poison_rate=1.0` it starves like a crash once attackers dominate;",
            "  at a low rate it hides inside the bloom digest's false-positive",
            "  floor. The digest-audit defense (sample",
            "  advertised-but-undelivered ids, feed the silence cut-off) claws",
            "  delivery back from the full-rate poisoner.",
            "* Bandwidth — attempted bytes on the wire per curve. The digest",
            "  round ships only the diff, so bytes fall as the poisoner withholds",
            "  (silence is cheap) and stay flat under trade (gifts ride outside",
            "  the digest legs) — delivery and bandwidth move on different axes,",
            "  which is the attack's whole economy.",
            "",
            "Sweepable and benchable through the ordinary grammar, e.g.:",
            "  lotus-bench --scenario bar-gossip-digest --attack poison \\",
            "      --param poison_rate=0.15 --sweep fraction --quick",
            "  lotus-bench --scenario bar-gossip-digest --attack none \\",
            "      --sweep digest_bits --x-values 256,512,1024,4096",
        ],
        args: &[
            "--scenario bar-gossip-digest",
            "--title X20 — Digest gossip: advertise-then-withhold vs the classic attacks",
            "--x-values 0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
            "--x-label attacker fraction",
            "--y-label isolated-node delivery",
            "--param rounds=60",
            "--curve none,label=no attack",
            "--curve trade,label=trade lotus-eater",
            "--curve masquerade,faults=loss:0.05,cutoff=3,label=masquerade over 5% loss (cutoff 3)",
            "--curve poison,label=poison: withhold every request",
            "--curve poison,poison_rate=0.15,label=poison: withhold 15% (deniable)",
            "--curve poison,audit=0.02,cutoff=3,label=poison vs digest audit (cutoff 3)",
        ],
        epilogue: &[
            "Gossip redundancy absorbs withholding: any honest partner fills",
            "the diff, so the full-rate poisoner needs near-majority control",
            "before isolated delivery cliffs — and at 15% withholding it is",
            "both harmless and statistically hidden under the digest's own",
            "false positives. Auditing advertised-but-undelivered ids arms the",
            "silence cut-off against exactly this: the full-rate poisoner is",
            "cut early and delivery recovers.",
        ],
        extra: Extra::Then {
            args: &[
                "--scenario bar-gossip-digest",
                "--title X20b — Bytes on the wire under the digest round",
                "--x-values 0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
                "--x-label attacker fraction",
                "--y-label attempted bytes on the wire",
                "--param rounds=60",
                "--curve none,metric=digest_bytes_on_wire,label=bytes: no attack",
                "--curve trade,metric=digest_bytes_on_wire,label=bytes: trade lotus-eater",
                "--curve poison,metric=digest_bytes_on_wire,label=bytes: poison (rate 1.0)",
            ],
            epilogue: &[
                "The transfer leg dominates the byte bill, so wire cost tracks",
                "useful work: the poisoner's withholding *saves* bytes while it",
                "starves delivery (defection is cheaper than cooperation), and",
                "trade's gifts ride outside the digest legs entirely. Digest",
                "advertisements themselves are a flat, tunable overhead",
                "(digest_bits/8 per exchange each way).",
            ],
        },
    },
];

/// Run preset `id` with the user's arguments `user` (parsed as `opts`)
/// appended to its own.
///
/// # Errors
///
/// An unknown id, and any parse, validation or configuration error of
/// the merged arguments.
pub fn run(
    registry: &ScenarioRegistry,
    id: &str,
    user: &[String],
    opts: &Options,
) -> Result<String, String> {
    let preset = PRESETS
        .iter()
        .find(|p| p.id == id)
        .ok_or_else(|| format!("unknown preset {id:?} (see --list)"))?;
    let figure = |args: &[&str], fidelity: &[&str], epilogue: &[&str]| {
        let merged = parse_args(&merged_args(args, fidelity, user))?;
        let mut out = run_opts(registry, &merged)?;
        if merged.format != Format::Json {
            for line in epilogue {
                out.push_str(line);
                out.push('\n');
            }
        }
        Ok::<_, String>(out)
    };
    match preset.extra {
        Extra::Table1 => Ok(table1()),
        Extra::ByFidelity { full, quick } => {
            let fidelity = if opts.quick { quick } else { full };
            figure(preset.args, fidelity, preset.epilogue)
        }
        Extra::Then { args, epilogue } => {
            let first = figure(preset.args, &[], preset.epilogue)?;
            Ok(first + &figure(args, &[], epilogue)?)
        }
        Extra::Coverage { x, paper } => {
            let mut out = figure(preset.args, &[], preset.epilogue)?;
            let merged = parse_args(&merged_args(preset.args, &[], user))?;
            if merged.format != Format::Json {
                out.push_str(&coverage_line(registry, &merged.params, x, paper)?);
            }
            Ok(out)
        }
        Extra::None => figure(preset.args, &[], preset.epilogue),
    }
}

/// The coverage probe of fig1/fig2: one ideal-attack bar-gossip run of
/// the system `params` describes, at `x` and the first sweep seed.
fn coverage_line(
    registry: &ScenarioRegistry,
    params: &Params,
    x: f64,
    paper: &str,
) -> Result<String, String> {
    // Sweep seeds run 1..=N.
    let report = registry.run(
        "bar-gossip",
        &RunRequest::new(x, 1, "ideal", "fraction", params),
    )?;
    let coverage = report
        .metric("attacker_coverage")
        .ok_or("bar-gossip reports no attacker_coverage")?;
    Ok(format!(
        "Ideal attacker at {:.0}% control holds {:.1}% of updates (paper: {paper})\n",
        x * 100.0,
        coverage * 100.0
    ))
}

/// The preset's arguments (each `"--flag value"` split at its first
/// space), then the fidelity-dependent ones, then the user's.
fn merged_args(args: &[&str], fidelity: &[&str], user: &[String]) -> Vec<String> {
    args.iter()
        .chain(fidelity)
        .flat_map(|a| match a.split_once(' ') {
            Some((flag, value)) => vec![flag, value],
            None => vec![*a],
        })
        .map(String::from)
        .chain(user.iter().cloned())
        .collect()
}

/// The paper's Table 1, from the `bar-gossip` default configuration.
fn table1() -> String {
    let cfg = BarGossipConfig::default();
    let mut t = Table::new(vec!["Parameter", "Value"]);
    for (name, value) in [
        ("Number of Nodes", cfg.nodes),
        ("Updates per Round", cfg.updates_per_round),
        ("Update Lifetime (rds)", cfg.update_lifetime),
        ("Copies Seeded", cfg.copies_seeded),
        ("Opt. Push Size (upd)", cfg.push_size),
    ] {
        t.row(vec![name.into(), value.to_string()]);
    }
    format!(
        "# TABLE 1 — Simulation Parameters\n\n{}\n\
         Evaluation horizon: {} warm-up + {} measured + {} drain rounds; usability threshold {}\n",
        t.render(),
        cfg.warmup_rounds,
        cfg.rounds,
        cfg.update_lifetime,
        cfg.usability_threshold
    )
}

/// The `--list` section naming every preset (`preset <id>` on a line of
/// its own) with its `about` text indented below.
pub fn render_list() -> String {
    let mut out = String::from(
        "\npresets (lotus-bench --preset ID [flags]; the flags follow the preset's own):\n",
    );
    for preset in PRESETS {
        out.push_str(&format!("\n  preset {}\n", preset.id));
        for line in preset.about {
            if line.is_empty() {
                out.push('\n');
            } else {
                out.push_str(&format!("    {line}\n"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn every_preset_parses_with_and_without_quick() {
        let registry = ScenarioRegistry::standard();
        for preset in PRESETS {
            for user in [strings(&[]), strings(&["--quick"])] {
                let quick = !user.is_empty();
                let mut figures = vec![(preset.args, &[][..])];
                match preset.extra {
                    Extra::ByFidelity { full, quick: q } => {
                        figures[0].1 = if quick { q } else { full }
                    }
                    Extra::Then { args, .. } => figures.push((args, &[])),
                    _ => {}
                }
                for (args, fidelity) in figures {
                    let opts = parse_args(&merged_args(args, fidelity, &user))
                        .unwrap_or_else(|e| panic!("preset {}: {e}", preset.id));
                    assert_eq!(opts.quick, quick);
                    // Every curve names a registered scenario and attack.
                    for curve in &opts.curves {
                        let name = curve.scenario.as_ref().or(opts.scenario.as_ref());
                        let spec = name
                            .and_then(|n| registry.get(n))
                            .unwrap_or_else(|| panic!("preset {}: no scenario", preset.id));
                        assert!(
                            spec.attacks.iter().any(|(a, _)| *a == curve.attack),
                            "preset {}: {} has no attack {:?}",
                            preset.id,
                            spec.name,
                            curve.attack
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn coverage_probe_runs_the_figures_system() {
        // The probe line follows the user's parameters: with nodes=60 it
        // reports a direct run of the 60-node system, not Table 1's.
        let registry = ScenarioRegistry::standard();
        let user = strings(&[
            "--quick",
            "--seeds",
            "1",
            "--x-values",
            "0.04",
            "--param",
            "nodes=60",
        ]);
        let opts = parse_args(&user).unwrap();
        let out = run(&registry, "fig1", &user, &opts).unwrap();
        let params = Params::new().with("nodes", "60");
        let report = registry
            .run(
                "bar-gossip",
                &RunRequest::new(0.04, 1, "ideal", "fraction", &params),
            )
            .unwrap();
        let expected = format!(
            "Ideal attacker at 4% control holds {:.1}% of updates (paper: ~39%)",
            report.metric("attacker_coverage").unwrap() * 100.0
        );
        assert_eq!(out.lines().last(), Some(expected.as_str()));
        let table1 = coverage_line(&registry, &Params::new(), 0.04, "~39%").unwrap();
        assert_ne!(table1.trim_end(), expected);
    }

    #[test]
    fn preset_ids_are_unique_paper_artifact_ids() {
        let ids: Vec<&str> = PRESETS.iter().map(|p| p.id).collect();
        let mut expected = vec!["table1".to_string()];
        expected.extend((1..=3).map(|i| format!("fig{i}")));
        expected.extend((1..=20).map(|i| format!("x{i}")));
        assert_eq!(ids, expected);
    }

    #[test]
    fn list_names_every_preset_without_scenario_header_lines() {
        // tools/parent_diff.sh reads preset ids as `preset <id>` lines and
        // scenario headers as `<name> — ...` lines of `--list`.
        let section = render_list();
        let named: Vec<&str> = section
            .lines()
            .filter_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
                ["preset", id] => Some(id),
                _ => None,
            })
            .collect();
        let ids: Vec<&str> = PRESETS.iter().map(|p| p.id).collect();
        assert_eq!(named, ids);
        for line in section.lines() {
            assert_ne!(line.split_whitespace().nth(1), Some("—"), "{line:?}");
        }
    }
}
