// The fleet side of promotion: discover a router's backends, roll a new
// bundle across them one reload at a time, and wait for the router's view to
// converge on the new fingerprint. The rollout is router-aware by design —
// while it is in flight the fleet intentionally serves a mix of old and new
// fingerprints, and the router's health probes and per-request pinning keep
// that mix correct, so mixed fingerprints here are progress, not an error.

package promote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
)

// ErrRollout: a backend failed to reload, or the fleet did not converge on
// the promoted fingerprint.
var ErrRollout = errors.New("promote: rollout failed")

// Client talks to one router and its backends. The zero value is unusable;
// use NewClient.
type Client struct {
	router string
	http   *http.Client
}

// NewClient returns a fleet client for the router at routerURL (scheme +
// host, no trailing slash required). A nil httpClient uses a default with a
// conservative per-call timeout.
func NewClient(routerURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	for len(routerURL) > 0 && routerURL[len(routerURL)-1] == '/' {
		routerURL = routerURL[:len(routerURL)-1]
	}
	return &Client{router: routerURL, http: httpClient}
}

// Backends asks the router for its current fleet view (GET /fleet).
func (c *Client) Backends(ctx context.Context) ([]fleet.BackendStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.router+"/fleet", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("promote: fleet discovery: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("promote: fleet discovery: router answered %s", resp.Status)
	}
	var st fleet.FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("promote: fleet discovery: %w", err)
	}
	return st.Backends, nil
}

// ReloadResult is one backend's hot swap.
type ReloadResult struct {
	URL string `json:"url"`
	Old string `json:"old"`
	New string `json:"new"`
}

// reload POSTs /admin/reload to one backend.
func (c *Client) reload(ctx context.Context, backendURL, bundlePath string) (*ReloadResult, error) {
	body, err := json.Marshal(serve.ReloadRequest{Bundle: bundlePath})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		backendURL+"/admin/reload", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("backend answered %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var rr serve.ReloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return nil, err
	}
	return &ReloadResult{URL: backendURL, Old: rr.Old, New: rr.New}, nil
}

// Rollout is a completed promotion across the fleet.
type Rollout struct {
	// Fingerprint every backend serves after the rollout.
	Fingerprint string         `json:"fingerprint"`
	Reloads     []ReloadResult `json:"reloads"`
}

// Promote rolls bundlePath across every backend the router knows, one
// reload at a time, then waits for the router's fleet view to converge on
// wantFP (the candidate's fingerprint). bundlePath must be readable by the
// backend processes — the loop runs them on one host, sharing a filesystem.
//
// A reload failure aborts the rollout with ErrRollout; backends already
// reloaded keep the new bundle (the router serves the mixed fleet correctly)
// and a retry is safe because reloading an already-promoted backend is a
// no-op swap to the same artifact.
func (c *Client) Promote(ctx context.Context, bundlePath, wantFP string) (*Rollout, error) {
	backends, err := c.Backends(ctx)
	if err != nil {
		return nil, err
	}
	if len(backends) == 0 {
		return nil, fmt.Errorf("%w: router reports no backends", ErrRollout)
	}
	ro := &Rollout{Fingerprint: wantFP}
	for _, b := range backends {
		rr, err := c.reload(ctx, b.URL, bundlePath)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrRollout, b.URL, err)
		}
		if wantFP != "" && rr.New != wantFP {
			return nil, fmt.Errorf("%w: %s loaded fingerprint %.12s, want %.12s",
				ErrRollout, b.URL, rr.New, wantFP)
		}
		ro.Reloads = append(ro.Reloads, *rr)
		// Let the router's probe cycle observe this backend's new version
		// before touching the next one. Requests pin to the router's cached
		// fingerprints, so rolling faster than the probes would leave several
		// entries stale at once; pacing the roll keeps the mix at one stale
		// backend at worst, which the router's pin-drain fallback absorbs.
		url := b.URL
		if err := c.waitFleet(ctx, wantFP, func(b fleet.BackendStatus) bool { return b.URL == url },
			fmt.Sprintf("router never observed %.12s on %s", wantFP, url)); err != nil {
			return nil, err
		}
	}
	if err := c.waitFleet(ctx, wantFP, func(fleet.BackendStatus) bool { return true },
		fmt.Sprintf("fleet did not converge on %.12s", wantFP)); err != nil {
		return nil, err
	}
	return ro, nil
}

// waitFleet polls GET /fleet until every backend row that watch selects
// reports fp; a row it does not select, or a backend the router no longer
// lists, counts as converged — the fleet may have been reconfigured under the
// rollout. The router's fingerprint view refreshes on its health-probe
// cadence, so the poll is bounded by the context, not a fixed deadline, and
// never names what the caller was waiting for when the context ends first.
func (c *Client) waitFleet(ctx context.Context, fp string, watch func(fleet.BackendStatus) bool, never string) error {
	if fp == "" {
		return nil
	}
	stale := func(b fleet.BackendStatus) bool { return watch(b) && b.Fingerprint != fp }
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		if backends, err := c.Backends(ctx); err == nil && !slices.ContainsFunc(backends, stale) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w: %s: %v", ErrRollout, never, ctx.Err())
		case <-tick.C:
		}
	}
}
