package gateway

// Disconnect marks the endpoint as gone; subsequent Report calls return
// ok=false.
func (e *LocalEndpoint) Disconnect() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.connected = false
}
