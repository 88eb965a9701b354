package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestCheckConns(t *testing.T) {
	if err := checkConns(1, 1); err != nil {
		t.Errorf("one connection for one client: %v", err)
	}
	if err := checkConns(0, 1); err != nil {
		t.Errorf("no connection: %v", err)
	}
	if err := checkConns(2, 1); err == nil {
		t.Error("two connections for one client accepted")
	}
}

// The load client reuses one keep-alive connection when it drains every
// body, which is what post does; a client that leaves bodies unread loses
// the connection each time and the counter shows it.
func TestLoadClientKeepsOneConnection(t *testing.T) {
	rig := &fleetRig{}
	defer rig.close()
	var err error
	rig.routerURL, err = rig.listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write([]byte(strings.Repeat("x", 64<<10)))
	}), &rig.clientConns)
	if err != nil {
		t.Fatal(err)
	}
	rig.hc = newLoadClient(1)
	for i := 0; i < 50; i++ {
		status, body, err := rig.post(context.Background(), []byte(`{}`), "")
		if err != nil || status != http.StatusOK || len(body) != 64<<10 {
			t.Fatalf("post %d: status %d, %d bytes, %v", i, status, len(body), err)
		}
	}
	if n := rig.clientConns.Load(); checkConns(n, 1) != nil || n != 1 {
		t.Fatalf("drained client opened %d connections", n)
	}

	for i := 0; i < 5; i++ {
		resp, err := rig.hc.Post(rig.routerURL+"/extract", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() // unread: the connection cannot be reused
	}
	if n := rig.clientConns.Load(); checkConns(n, 1) == nil {
		t.Fatalf("undrained client opened only %d connections", n)
	}
}
