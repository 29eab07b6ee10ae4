CREATE CHRONICLE ledger (acct STRING, kind STRING, amount FLOAT);
CREATE RELATION accounts (acct STRING, holder STRING, KEY(acct));
CREATE VIEW dollar_balance AS SELECT acct, SUM(amount) AS balance, COUNT(*) AS txns FROM ledger GROUP BY acct WITH STORE BTREE;
CREATE VIEW ledger_kinds AS SELECT kind, COUNT(*) AS n, SUM(amount) AS total FROM ledger GROUP BY kind WITH STORE HASH;
CREATE GROUP payments;
CREATE CHRONICLE authorized (merchant STRING, amount FLOAT) IN GROUP payments;
CREATE CHRONICLE captured (merchant STRING, amount FLOAT) IN GROUP payments;
CREATE VIEW settled AS SELECT authorized.merchant, COUNT(*) AS events, SUM(authorized.amount) AS volume FROM authorized JOIN captured ON SN GROUP BY authorized.merchant WITH STORE BTREE;
CREATE VIEW auth_volume AS SELECT merchant, COUNT(*) AS events, SUM(amount) AS volume FROM authorized GROUP BY merchant;
