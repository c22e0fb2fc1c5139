package attack

import (
	"fmt"
	"math"
	"time"

	"repro/internal/xrand"
)

// StormConfig parameterizes the Storm-zombie activity synthesizer.
// The paper overlaid a one-week trace of a live Storm bot (all
// inessential services disabled) on every user trace and measured the
// num-distinct-connections feature; this synthesizer reproduces the
// published behaviour of Storm's Overnet/Kademlia P2P layer: a
// sustained background of UDP peer-discovery churn touching many
// distinct peers per window, punctuated by harder-working spam/DDoS
// campaign phases.
type StormConfig struct {
	// BinWidth is the aggregation window (must match the user
	// matrices it will be overlaid on).
	BinWidth time.Duration
	// Bins is the length of the synthesized activity series.
	Bins int
	// Seed drives the synthesis.
	Seed uint64
	// BaseDistinct is the mean distinct peers contacted per window
	// during idle P2P churn (zero means the default 120, scaled for a
	// 15-minute window).
	BaseDistinct float64
	// CampaignDistinct is the mean during campaign phases (zero
	// means the default 600).
	CampaignDistinct float64
}

// StormBot is a synthesized Storm zombie activity trace.
type StormBot struct {
	cfg StormConfig
	// Distinct[b] is the number of distinct destinations the bot
	// contacts in window b.
	Distinct []float64
	// Campaign[b] reports whether window b is inside a spam/DDoS
	// campaign phase.
	Campaign []bool
}

// NewStorm synthesizes a Storm bot activity series.
func NewStorm(cfg StormConfig) (*StormBot, error) {
	if cfg.Bins <= 0 {
		return nil, fmt.Errorf("attack: StormConfig.Bins must be positive, got %d", cfg.Bins)
	}
	if cfg.BinWidth == 0 {
		cfg.BinWidth = 15 * time.Minute
	}
	scale := cfg.BinWidth.Minutes() / 15
	if cfg.BaseDistinct == 0 {
		cfg.BaseDistinct = 80 * scale
	}
	if cfg.CampaignDistinct == 0 {
		cfg.CampaignDistinct = 3000 * scale
	}
	if cfg.BaseDistinct < 0 || cfg.CampaignDistinct < 0 {
		return nil, fmt.Errorf("attack: negative Storm rates")
	}
	r := xrand.New(cfg.Seed)
	bot := &StormBot{
		cfg:      cfg,
		Distinct: make([]float64, cfg.Bins),
		Campaign: make([]bool, cfg.Bins),
	}
	// Two-state semi-Markov process: churn <-> campaign. Storm bots
	// were observed alternating long quiet P2P maintenance with
	// multi-hour campaign bursts.
	inCampaign := false
	remaining := 0
	for b := 0; b < cfg.Bins; b++ {
		if remaining == 0 {
			inCampaign = !inCampaign && r.Float64() < 0.35
			if inCampaign {
				remaining = 4 + r.Intn(20) // 1h..6h campaigns
			} else {
				remaining = 8 + r.Intn(60) // 2h..17h churn stretches
			}
		}
		remaining--
		mean := cfg.BaseDistinct
		sigma := 1.1 // P2P churn is very bursty window to window
		if inCampaign {
			bot.Campaign[b] = true
			mean = cfg.CampaignDistinct
			sigma = 0.9
		}
		// The bot never sleeps (the paper's zombie host ran
		// continuously), but its activity fluctuates over a wide
		// range — wide enough to straddle the user population's
		// threshold range, which is what makes per-user detection
		// rates diverse (Fig 5).
		v := float64(r.Poisson(mean * math.Exp(sigma*r.NormFloat64())))
		bot.Distinct[b] = v
	}
	return bot, nil
}

// Overlay returns the bot's activity as an Additive attack aligned
// with a user series of the same length.
func (s *StormBot) Overlay() Additive {
	return Additive{Overlay: append([]float64(nil), s.Distinct...)}
}
